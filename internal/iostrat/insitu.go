package iostrat

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/storage"
)

// InSituMode selects how the DES face couples analysis consumers to the
// aggregation-tree roots — the virtual-time mirror of the runtime
// streaming face (storage.Stream + cluster.NewStreamingHook).
type InSituMode string

const (
	// InSituOff runs no in-situ analysis (the default).
	InSituOff InSituMode = ""
	// InSituStream hands each root's merged iteration to its analysis
	// consumer the moment aggregation completes, before and overlapped
	// with the backend write — the streaming pipeline.
	InSituStream InSituMode = "stream"
	// InSituFile publishes only after the root's backend write
	// completed, and the consumer pays a striped read-back before
	// analyzing — the file-then-read baseline the E7 extension compares
	// streaming against.
	InSituFile InSituMode = "file"
)

// InSituModes lists the couplings the E7 extension sweeps.
func InSituModes() []InSituMode { return []InSituMode{InSituStream, InSituFile} }

// ValidateInSituMode rejects unknown coupling names before a run starts.
func ValidateInSituMode(m InSituMode) error {
	switch m {
	case InSituOff, InSituStream, InSituFile:
		return nil
	}
	return fmt.Errorf("iostrat: unknown in-situ mode %q (have %v)", m, InSituModes())
}

// InSituConfig prices the paper's §V in-situ story at multi-node scale:
// one analysis consumer per aggregation-tree root, running on the
// root's dedicated-core spare time, fed through a bounded queue with
// the same slow-consumer policies as the runtime streaming face.
// Tree mode (Config.Fanout >= 2) only.
type InSituConfig struct {
	// Mode selects the coupling (InSituOff disables everything).
	Mode InSituMode
	// AnalysisBandwidth is the consumer's kernel throughput in raw
	// bytes/s — how fast the dedicated core chews through a frame
	// (default 1 GB/s). Lowering it below the production rate makes the
	// consumer "slow" and exercises the policy.
	AnalysisBandwidth float64
	// Buffer is the per-root queue capacity in iterations (default
	// storage.DefaultStreamBuffer). It bounds staleness: under
	// DropOldest a consumer is never more than Buffer frames behind its
	// root.
	Buffer int
	// Policy is the slow-consumer policy (default storage.DropOldest).
	// storage.Block models backpressure without a timeout on this face:
	// the publisher — the root's write path — waits for queue space,
	// and the wait is measured in Result.StreamBlockTime (and visible
	// in TreeWriteLatencies). The runtime face adds the detach timeout.
	Policy storage.SlowPolicy
}

func (c InSituConfig) withDefaults() InSituConfig {
	if c.AnalysisBandwidth <= 0 {
		c.AnalysisBandwidth = 1e9
	}
	if c.Buffer <= 0 {
		c.Buffer = storage.DefaultStreamBuffer
	}
	if c.Policy == "" {
		c.Policy = storage.DropOldest
	}
	return c
}

// validate rejects a configuration the DES face cannot run.
func (c InSituConfig) validate(treeMode bool) error {
	if c.Mode == InSituOff {
		return nil
	}
	if err := ValidateInSituMode(c.Mode); err != nil {
		return err
	}
	if !treeMode {
		return fmt.Errorf("iostrat: in-situ coupling requires tree mode (Fanout >= 2)")
	}
	return storage.ValidateSlowPolicy(string(c.Policy))
}

// insituQ is the DES counterpart of a storage.Subscription: one root's
// bounded frame queue between its dedicated core (publisher) and its
// analysis consumer. The shared storage.StreamQueue decides what a
// full queue does; this face only waits, on des.Future parking instead
// of channels — the same discipline as nodeShm. One publisher (the node
// currently owning the root ordinal) and one consumer per queue.
type insituQ struct {
	eng     *des.Engine
	frames  *storage.StreamQueue[shmIter]
	waiting parked // consumer, on an empty queue
	space   parked // Block-policy publisher, on a full queue
}

// take runs k with the next frame once one is pending, parking the
// consumer until then and draining the backlog before honouring
// closure; k gets false once the queue is closed and drained.
func (q *insituQ) take(k func(shmIter, bool)) {
	if item, ok := q.frames.Take(); ok {
		q.space.wake()
		k(item, true)
		return
	}
	if q.frames.IsClosed() {
		k(shmIter{}, false)
		return
	}
	q.waiting.wait(q.eng, func() { q.take(k) })
}

// close ends the stream: the consumer drains what is queued and exits;
// a parked Block publisher is released.
func (q *insituQ) close() {
	q.frames.Close()
	q.waiting.wake()
	q.space.wake()
}

// publishInSitu offers a completed root frame to the given root
// ordinal's consumer queue under the queue's policy, then runs k. It
// publishes only under the run's coupling mode (no-op otherwise, and
// when in-situ is off). A Block-policy publisher waits for queue space,
// and the wait is charged to the run's StreamBlockTime. The caller
// resolves the ordinal through the frame's topology epoch, so a frame
// routed by an older tree reaches the queue that root owned.
func (tr *treeRun) publishInSitu(mode InSituMode, ord int, item shmIter, k func()) {
	if tr.cfg.InSitu.Mode != mode || tr.insituQs == nil || item.bytes <= 0 {
		k()
		return
	}
	q := tr.insituQs[ord]
	blocked := 0.0
	var offer func()
	offer = func() {
		switch q.frames.Offer(item) {
		case storage.MustWait:
			t0 := tr.eng.Now()
			q.space.wait(tr.eng, func() {
				blocked += tr.eng.Now() - t0
				offer()
			})
			return
		case storage.Queued, storage.Evicted:
			q.waiting.wake()
		}
		if blocked > 0 {
			tr.res.StreamBlockTime += blocked
		}
		k()
	}
	offer()
}

// growInsitu widens the per-root-ordinal queue/consumer array to cover
// numRoots ordinals (no-op when in-situ is off or already wide enough):
// a re-formation that flattens the forest starts consumers for the new
// ordinals mid-run, while shrunken root sets keep their extra queues —
// frames from fenced iterations may still arrive on them.
func (tr *treeRun) growInsitu(numRoots int) {
	if tr.cfg.InSitu.Mode == InSituOff {
		return
	}
	for len(tr.insituQs) < numRoots {
		q := &insituQ{
			eng:    tr.eng,
			frames: storage.NewStreamQueue[shmIter](tr.cfg.InSitu.Buffer, tr.cfg.InSitu.Policy),
		}
		tr.insituQs = append(tr.insituQs, q)
		ord := len(tr.insituQs) - 1
		tr.eng.Wait(0, func() { tr.runConsumer(q, ord) })
	}
}

// runConsumer is one root's analysis consumer: a loop on the root's
// dedicated-core pool that drains the frame queue and pays analysis
// CPU per frame — §V's visualization running on the cores' spare time.
// Under InSituFile each frame additionally pays the striped read-back
// of the root object before any kernel runs (the file-then-read
// baseline); under InSituStream the frame is already in memory.
func (tr *treeRun) runConsumer(q *insituQ, ord int) {
	cfg, be, res := tr.cfg, tr.be, tr.res
	var next func()
	next = func() {
		q.take(func(item shmIter, ok bool) {
			if !ok {
				return
			}
			analyze := func() {
				cpu := item.bytes / cfg.InSitu.AnalysisBandwidth
				tr.eng.Wait(cpu, func() {
					res.AnalysisCPUTime += cpu
					res.DedicatedBusy += cpu // analysis rides the dedicated cores
					res.FramesAnalyzed++
					res.AnalysisLatencies = append(res.AnalysisLatencies, tr.eng.Now()-tr.phaseStart[item.iter])
					next()
				})
			}
			if cfg.InSitu.Mode != InSituFile {
				analyze()
				return
			}
			// Read the just-written root object back through the same
			// stripe window the write used — the frame's own epoch's,
			// which a later re-formation does not retarget; the read
			// competes with whatever the storage system is serving.
			stripes := tr.stripes(item.iter)
			stripeAcross(be.ReadAsync, (ord*stripes)%be.Targets(), stripes, be.Targets(), item.bytes, analyze)
		})
	}
	next()
}
