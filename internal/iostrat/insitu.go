package iostrat

import (
	"fmt"

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
// analysis consumer, an actor of kind kConsume indexed by root ordinal.
// The shared storage.StreamQueue decides what a full queue does; this
// face only parks, the same discipline as nodeShm.
type insituQ struct {
	frames  *storage.StreamQueue[shmIter]
	waiting parked // consumer, on an empty queue
	space   parked // Block-policy publisher, on a full queue
	resume  func() // that publisher's continuation
	item    shmIter
	stage   consumerStage
	read    stripeWait // InSituFile: the frame's read-back
}

// consumerStage is what an analysis consumer's step does next.
type consumerStage uint8

const (
	consumerTake     consumerStage = iota // take the next frame (a parked take's wake)
	consumerRead                          // analyze it once read back
	consumerAnalyzed                      // account its analysis, then take the next
)

// close ends the stream: the consumer drains what is queued and exits;
// a parked Block publisher is released.
func (q *insituQ) close() {
	q.frames.Close()
	q.waiting.wake()
	q.space.wake()
}

// publish offers root n's merged frame, under the run's coupling mode
// only, to the consumer queue of its epoch's root ordinal (the queue the
// root owned when an older tree routed it), then continues the core at
// stage next. A Block-policy publisher waits for queue space, charged to
// the run's StreamBlockTime.
func (tr *damarisRun) publish(n int32, mode InSituMode, next coreStage) {
	c := &tr.cores[n]
	c.stage = next
	if tr.cfg.InSitu.Mode != mode || tr.insituQs == nil || c.subtree <= 0 {
		tr.step(n)
		return
	}
	q, item := tr.insituQs[c.d.Window], shmIter{iter: c.item.iter, bytes: c.subtree}
	blocked := 0.0
	var offer func()
	offer = func() {
		switch q.frames.Offer(item) {
		case storage.MustWait:
			t0 := tr.eng.Now()
			q.resume = func() { blocked += tr.eng.Now() - t0; offer() }
			q.space.on = true
			return
		case storage.Queued, storage.Evicted:
			q.waiting.wake()
		}
		if blocked > 0 {
			tr.res.StreamBlockTime += blocked
		}
		tr.step(n)
	}
	offer()
}

// growInsitu widens the per-root-ordinal queue/consumer array to cover
// numRoots ordinals (no-op when in-situ is off or already wide enough):
// a re-formation that flattens the forest starts consumers for the new
// ordinals mid-run, while shrunken root sets keep their extra queues —
// frames from fenced iterations may still arrive on them.
func (tr *damarisRun) growInsitu(numRoots int) {
	if tr.cfg.InSitu.Mode == InSituOff {
		return
	}
	for len(tr.insituQs) < numRoots {
		ord := int32(len(tr.insituQs))
		tr.insituQs = append(tr.insituQs, &insituQ{
			frames:  storage.NewStreamQueue[shmIter](tr.cfg.InSitu.Buffer, tr.cfg.InSitu.Policy),
			waiting: parked{eng: tr.eng, kind: tr.kConsume, actor: ord},
			space:   parked{eng: tr.eng, kind: tr.kResume, actor: ord},
		})
		tr.eng.Post(0, tr.kConsume, ord)
	}
}

// consume continues root ordinal o's analysis consumer, a loop on the
// root's dedicated-core pool that drains the frame queue, backlog before
// closure, and pays analysis CPU per frame — §V's visualization on the
// cores' spare time. Under InSituFile a frame first pays the striped
// read-back of the root object (the file-then-read baseline) through
// its own epoch's stripe window, competing with whatever the storage
// system serves; under InSituStream it is already in memory.
func (tr *damarisRun) consume(o int32) {
	q, cfg, be := tr.insituQs[o], tr.cfg.InSitu, tr.be
	for {
		switch q.stage {
		case consumerTake:
			item, ok := q.frames.Take()
			if !ok {
				q.waiting.on = !q.frames.IsClosed()
				return
			}
			q.space.wake()
			q.item, q.stage = item, consumerRead
			if cfg.Mode == InSituFile {
				stripes := tr.stripes(item.iter)
				q.read.start(be.Read, (int(o)*stripes)%be.Targets(), stripes, be.Targets(), item.bytes)
			}
		case consumerRead:
			if !q.read.await(tr.kConsume, o) {
				return
			}
			q.stage = consumerAnalyzed
			tr.eng.Post(q.item.bytes/cfg.AnalysisBandwidth, tr.kConsume, o)
			return
		case consumerAnalyzed:
			cpu := q.item.bytes / cfg.AnalysisBandwidth
			tr.res.AnalysisCPUTime += cpu
			tr.res.DedicatedBusy += cpu // analysis rides the dedicated cores
			tr.res.FramesAnalyzed++
			tr.res.AnalysisLatencies = append(tr.res.AnalysisLatencies, tr.eng.Now()-tr.loop.phaseStart[q.item.iter])
			q.stage = consumerTake
		}
	}
}
