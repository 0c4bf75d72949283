package iostrat

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/workload"
)

// dedicatedPerNode is the number of cores per node removed from
// computation and devoted to I/O, as in every configuration the paper
// evaluates.
const dedicatedPerNode = 1

// parked is the DES face's condition variable: at most one process waits
// on it, and whoever changes what it waits for wakes it to look again.
type parked struct{ f *des.Future }

func (w *parked) wait(p *des.Proc, eng *des.Engine) {
	w.f = eng.NewFuture()
	p.Await(w.f)
}

func (w *parked) wake() {
	if f := w.f; f != nil {
		w.f = nil
		f.Complete()
	}
}

// nodeShm models one node's shared-memory segment between simulation
// cores and the dedicated core: bounded capacity, a FIFO of pending
// iterations, and the paper's §V.C policy of *skipping* an iteration
// (rather than blocking the simulation) when the segment is full.
type nodeShm struct {
	eng      *des.Engine
	capacity float64
	occupied float64
	pending  []shmIter
	waiting  parked // dedicated core, on an empty queue
	skipped  int
	closed   bool
	dead     bool    // node failed: offers are dropped, not skipped
	lost     float64 // bytes dropped because the node was dead
}

type shmIter struct {
	iter  int
	bytes float64
}

// offer tries to enqueue an iteration's data; it reports false (and counts
// a skip) when the segment cannot hold it. On a dead node the data is
// dropped silently and accounted as failure loss, not as a skip.
func (s *nodeShm) offer(it int, bytes float64) bool {
	if s.dead {
		s.lost += bytes
		return true
	}
	if s.occupied+bytes > s.capacity {
		s.skipped++
		return false
	}
	s.occupied += bytes
	s.pending = append(s.pending, shmIter{iter: it, bytes: bytes})
	s.waiting.wake()
	return true
}

// offerEmpty enqueues a zero-byte marker for an iteration whose data was
// dropped, keeping tree-mode dedicated cores in iteration lockstep: the
// node still participates in the aggregation round, contributing nothing.
func (s *nodeShm) offerEmpty(it int) {
	if s.dead {
		return
	}
	s.pending = append(s.pending, shmIter{iter: it})
	s.waiting.wake()
}

// kill marks the node's I/O stack dead: queued and future offers are
// dropped and charged to the failure loss.
func (s *nodeShm) kill() {
	for _, it := range s.pending {
		s.lost += it.bytes
	}
	s.dead = true
	s.pending = nil
	s.occupied = 0
}

// take blocks the dedicated core until data is pending, then dequeues one
// iteration. It returns false when closed and drained.
func (s *nodeShm) take(p *des.Proc) (shmIter, bool) {
	for len(s.pending) == 0 {
		if s.closed {
			return shmIter{}, false
		}
		s.waiting.wait(p, s.eng)
	}
	it := s.pending[0]
	s.pending = s.pending[1:]
	return it, true
}

// free releases an iteration's bytes after the dedicated core wrote them.
func (s *nodeShm) free(bytes float64) { s.occupied -= bytes }

// close marks the producer finished; a parked dedicated core is woken to
// observe the closure.
func (s *nodeShm) close() {
	s.closed = true
	s.waiting.wake()
}

// desAgg collects child-subtree contributions at one node of the
// aggregation tree (the DES counterpart of cluster's aggregator). Like
// the runtime aggregator it tracks coverage sets — which origin nodes
// an iteration's delivered data spans — instead of counting against a
// fixed child count, so failures that re-route children or shrink the
// required coverage mid-run cannot wedge a parked dedicated core.
type desAgg struct {
	covered map[int]map[int]bool // iteration → origin nodes delivered
	bytes   map[int]float64
	waiting parked // the node's dedicated core, on missing coverage
}

// deliver records a contribution covering the given origin nodes for an
// iteration and wakes the parked dedicated core to re-check.
func (a *desAgg) deliver(it int, b float64, covers []int) {
	for _, n := range covers {
		a.cover(it, n)
	}
	a.bytes[it] += b
	a.waiting.wake()
}

// cover marks origin node n as delivered for iteration it without adding
// bytes: a node's own output arrives through its shm loop, not a child.
func (a *desAgg) cover(it, n int) {
	m := a.covered[it]
	if m == nil {
		m = map[int]bool{}
		a.covered[it] = m
	}
	m[n] = true
}

// take consumes iteration it: the merged child volume and the coverage
// set delivered so far.
func (a *desAgg) take(it int) (float64, []int) {
	b := a.bytes[it]
	covers := sortedIntKeys(a.covered[it])
	delete(a.covered, it)
	delete(a.bytes, it)
	return b, covers
}

// sortedIntKeys returns m's keys ascending: map iteration order must
// never leak into the deterministic event schedule.
func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// bandwidthShifter is the model-level knob scenario PFS shifts reach
// through the backend stack (implemented by storage.PFS).
type bandwidthShifter interface{ SetBandwidthFactor(float64) }

// runDamaris models the Damaris approach: per node, CoresPerNode-D
// simulation cores and D dedicated cores. Simulation cores pay only the
// shared-memory write (bytes/ShmBandwidth + per-variable overhead); the
// dedicated core asynchronously aggregates the node's output and writes
// it overlapped with the next compute phase. Because the node computes
// the same (weak-scaling) problem on fewer cores, the compute phase
// stretches by CoresPerNode/(CoresPerNode-D) — the paper's "slight
// impact".
//
// With Fanout < 2 every node writes FilesPerIter files per iteration
// (the paper's baseline). With Fanout >= 2 the dedicated cores form the
// k-ary aggregation forest of internal/cluster: leaves forward their
// node's iteration over the NIC, interior nodes batch their subtree,
// and only tree roots touch the backend — few, large, striped
// sequential streams.
//
// A Config.Scenario trace makes the workload per-iteration (volumes,
// compute times, variable counts), steps the NIC/PFS bandwidth mid-run
// and merges node losses into the failure schedule; Config.Adapt =
// AdaptAdaptive lets tree mode re-form the forest at epoch fences when
// the observed bandwidths say the configured shape is no longer right.
func runDamaris(cfg Config) (Result, error) {
	if err := ValidateScheduling(cfg.Scheduling); err != nil {
		return Result{}, err
	}
	if err := ValidateAdaptPolicy(cfg.Adapt); err != nil {
		return Result{}, err
	}
	if err := cfg.InSitu.validate(cfg.Fanout >= 2); err != nil {
		return Result{}, err
	}
	if cfg.Adapt == AdaptAdaptive && cfg.Fanout < 2 {
		return Result{}, fmt.Errorf("iostrat: adaptive tree re-formation requires tree mode (Fanout >= 2)")
	}
	plat := cfg.Platform
	trace := cfg.Scenario
	if trace != nil && trace.Nodes != plat.Nodes {
		return Result{}, fmt.Errorf("iostrat: scenario %q generated for %d nodes, platform has %d",
			trace.Scenario, trace.Nodes, plat.Nodes)
	}
	eng := des.NewEngine()
	root := rng.New(cfg.Seed, 3)
	be, baseBE, err := cfg.newBackend(eng, root.Named("pfs"))
	if err != nil {
		return Result{}, err
	}

	w := cfg.Workload
	computePerNode := plat.CoresPerNode - dedicatedPerNode
	if computePerNode <= 0 {
		panic("iostrat: no compute cores left on the node")
	}
	nComputeRanks := plat.Nodes * computePerNode
	// Same per-node problem on fewer cores: longer compute phase.
	stretch := float64(plat.CoresPerNode) / float64(computePerNode)
	computeTime := w.ComputeTime * stretch
	// The node still produces the same output volume per iteration.
	nodeBytes := w.NodeBytes(plat.CoresPerNode)

	// Per-iteration workload: the flat numbers, or the scenario trace's.
	computeAt := func(int) float64 { return computeTime }
	nodeBytesAt := func(int) float64 { return nodeBytes }
	varsAt := func(int) int { return w.VarsPerCore }
	if trace != nil {
		computeAt = func(it int) float64 { return trace.Iters[it].ComputeTime * stretch }
		nodeBytesAt = func(it int) float64 {
			return trace.Iters[it].BytesPerCore * float64(plat.CoresPerNode)
		}
		varsAt = func(it int) int { return trace.Iters[it].VarsPerCore }
	}

	failures := cfg.Failures.WithTrace(trace)

	treeMode := cfg.Fanout >= 2

	res := Result{Approach: Damaris, Platform: plat, Workload: w, Backend: cfg.Backend}
	res.IOTimes = make([]float64, w.Iterations)
	res.RankWriteTimes = make([]float64, 0, nComputeRanks*w.Iterations)

	stepBarrier := eng.NewBarrier(nComputeRanks)
	phaseStart := make([]float64, w.Iterations)

	shms := make([]*nodeShm, plat.Nodes)
	arrived := make([][]int, plat.Nodes) // per node, per iteration rank count
	for n := range shms {
		shms[n] = &nodeShm{eng: eng, capacity: cfg.ShmCapacity}
		arrived[n] = make([]int, w.Iterations)
	}

	// One broker per run, shared by every dedicated core and tree root:
	// the schedule is cluster-wide, not per backend stream.
	schedule := newScheduler(eng, cfg.Scheduling, be.Targets())

	// Platform shifts: rank 0 applies the trace's cumulative factors at
	// the phase start of the shift's iteration. NIC shifts scale the
	// tree-mode forward bandwidth; PFS shifts reach the storage model
	// through the backend stack; both (and rejoins) disturb the adaptation
	// controller so it re-evaluates the forest shape.
	var tr *treeRun
	adapter := cluster.NewAdapter(plat.Nodes, be.Targets(), w.Iterations,
		plat.NICBandwidth, plat.PFS.OSTBandwidth, nodeBytesAt)
	shifter, _ := baseBE.(bandwidthShifter)
	curNIC, curPFS := 1.0, 1.0
	applyShifts := func(it int) {
		if trace == nil || len(trace.ShiftsAt(it)) == 0 {
			return
		}
		if f := trace.NICFactorAt(it); f != curNIC {
			curNIC = f
			if tr != nil {
				tr.nicFactor = f
			}
			adapter.Disturb()
		}
		if f := trace.PFSFactorAt(it); f != curPFS {
			curPFS = f
			if shifter != nil {
				shifter.SetBandwidthFactor(f)
			}
			adapter.Disturb()
		}
		for _, s := range trace.ShiftsAt(it) {
			// A rejoin does not resurrect the node's I/O stack on this
			// face, but it is a topology event the adaptive policy
			// re-evaluates on.
			if s.Kind == workload.ShiftNodeRejoin {
				adapter.Disturb()
			}
		}
	}

	// Simulation cores.
	var appEnd float64
	for r := 0; r < nComputeRanks; r++ {
		rank := r
		node := rank / computePerNode
		compRng := root.Named("compute").Child(uint64(rank))
		eng.Spawn("sim", func(p *des.Proc) {
			for it := 0; it < w.Iterations; it++ {
				p.Wait(computeAt(it) * compRng.UnitLogNormal(w.ComputeJitter))
				p.Arrive(stepBarrier)
				if rank == 0 {
					be.BeginPhase()
					applyShifts(it)
					phaseStart[it] = p.Now()
				}
				// The application-visible "I/O": copy the variables into
				// the shared-memory segment.
				t0 := p.Now()
				nb := nodeBytesAt(it)
				p.Wait(nb/float64(computePerNode)/plat.ShmBandwidth +
					float64(varsAt(it))*plat.ShmWriteOverhead)
				res.RankWriteTimes = append(res.RankWriteTimes, p.Now()-t0)
				// Last core of the node in this iteration publishes the
				// node's data to the dedicated core.
				arrived[node][it]++
				if arrived[node][it] == computePerNode {
					if !shms[node].offer(it, nb) && treeMode {
						// Data lost, but the node must still take part in
						// the aggregation round.
						shms[node].offerEmpty(it)
					}
				}
				p.Arrive(stepBarrier)
				if rank == 0 {
					res.IOTimes[it] = p.Now() - phaseStart[it]
				}
			}
			if rank == 0 {
				appEnd = p.Now()
				for _, s := range shms {
					s.close()
				}
			}
		})
	}

	// Dedicated cores (one writer proc per node; D dedicated cores share
	// the same work, so busy time is attributed to the node's pool).
	if treeMode {
		tr = &treeRun{
			cfg:        cfg,
			eng:        eng,
			be:         be,
			schedule:   schedule,
			res:        &res,
			aggs:       make([]*desAgg, plat.Nodes),
			failures:   failures,
			forest:     cluster.NewForest(plat.Nodes, cfg.Fanout, cfg.AggRoots),
			writeEnd:   make([]float64, w.Iterations),
			phaseStart: phaseStart,
			computeAt:  computeAt,
			nicFactor:  1,
			adapter:    adapter,
			liveNodes:  plat.Nodes,
		}
		for n := range tr.aggs {
			tr.aggs[n] = &desAgg{covered: map[int]map[int]bool{}, bytes: map[int]float64{}}
		}
		// One bounded frame queue and one analysis consumer per root
		// window — a promoted root inherits its predecessor's queue
		// along with the stripe window, and re-formations that widen
		// the root set grow the array mid-run.
		tr.growInsitu(tr.forest.Windows(0))
	}
	for n := 0; n < plat.Nodes; n++ {
		node := n
		if treeMode {
			eng.Spawn("dedicated", func(p *des.Proc) {
				tr.runNode(p, shms[node], node)
			})
			continue
		}
		eng.Spawn("dedicated", func(p *des.Proc) {
			fileSeq := 0
			for {
				item, ok := shms[node].take(p)
				if !ok {
					return
				}
				t0 := p.Now()
				files := cfg.FilesPerIter
				per := item.bytes / float64(files)
				pat := storage.BigSequential
				if per < 64e6 {
					pat = storage.SmallFile
				}
				for f := 0; f < files; f++ {
					// Usage-balanced allocation (Lustre QoS allocator):
					// spread node files round-robin over the OSTs.
					ost := (node + fileSeq*plat.Nodes) % be.Targets()
					fileSeq++
					release := schedule.acquire(p, writeReq{
						holder:   node,
						base:     ost,
						stripes:  1,
						deadline: phaseStart[item.iter] + computeAt(item.iter),
						bytes:    per,
					})
					be.Create(p)
					be.Write(p, ost, per, pat)
					be.Close(p)
					release()
					res.FilesCreated++
				}
				shms[node].free(item.bytes)
				res.DedicatedBusy += p.Now() - t0
			}
		})
	}

	drainEnd := eng.Run()
	res.TotalTime = appEnd
	res.DrainTime = drainEnd
	acc := be.Accounting()
	bs := schedule.brokerStats()
	res.BytesWritten = acc.BytesWritten
	res.IOWindow = acc.IOBusyTime
	res.BytesSaved = acc.BytesSaved
	res.CodecCPUTime = acc.EncodeTime + acc.DecodeTime
	res.DedupBytesSaved = acc.DedupBytesSaved
	res.HashCPUTime = acc.ChunkHashTime
	res.SchedWaitTime = bs.WaitTime
	res.RootContention = bs.ContendedGrants
	res.DedicatedTotal = float64(plat.Nodes*dedicatedPerNode) * drainEnd
	for _, s := range shms {
		res.SkippedIters += s.skipped
	}
	if treeMode {
		res.Completeness = make([]float64, w.Iterations)
		res.TreeWriteLatencies = make([]float64, w.Iterations)
		completeness := tr.forest.Completeness()
		for it := 0; it < w.Iterations; it++ {
			res.Completeness[it] = completeness[it]
			if tr.writeEnd[it] > phaseStart[it] {
				res.TreeWriteLatencies[it] = tr.writeEnd[it] - phaseStart[it]
			}
		}
		// Aggregations nobody consumed (their consumer died or moved on
		// when the coverage requirement shrank) are lost payload, as is
		// everything a dead node's shm dropped.
		for _, a := range tr.aggs {
			for _, it := range sortedIntKeys(a.bytes) {
				res.LostBytes += a.bytes[it]
			}
		}
		for _, s := range shms {
			res.LostBytes += s.lost
		}
		for _, q := range tr.insituQs {
			res.FramesDropped += int(q.frames.Dropped())
		}
	}
	return res, nil
}

// treeRun bundles the state shared by every dedicated core of a
// tree-mode run: the routing forest, the per-node aggregators, the
// shared write scheduler, the adaptation controller and the
// per-iteration measurements.
type treeRun struct {
	cfg      Config
	eng      *des.Engine
	be       storage.CostModel
	schedule writeScheduler
	res      *Result
	aggs     []*desAgg
	failures *cluster.FailureSchedule

	// forest is the routing protocol shared with the runtime cluster,
	// driven here from the single simulation thread.
	forest *cluster.Forest

	writeEnd   []float64 // per iteration, last root-write completion
	phaseStart []float64
	computeAt  func(it int) float64

	// nicFactor is the trace's current cumulative NIC multiplier (1
	// without shifts). adapter is the controller shared with the runtime
	// face: every timed forward and root stripe write is one observation,
	// every platform shift, death and rejoin one disturbance; its
	// recommendations are applied only under AdaptAdaptive.
	nicFactor float64
	adapter   *cluster.Adapter

	// insituQs holds one analysis frame queue per root ordinal (nil
	// when Config.InSitu is off); liveNodes counts dedicated cores
	// still running, so the queues close — releasing the consumer
	// procs — exactly when no publisher remains.
	insituQs  []*insituQ
	liveNodes int
}

// stripes is the width of a root's stripe window for iteration it: the
// write path, the in-situ read-back and (through the same rule) the
// restart-read model all price the layout of the iteration's own epoch.
func (tr *treeRun) stripes(it int) int {
	return cluster.StripeWidth(tr.cfg.RootStripes, tr.be.Targets(), tr.forest.Windows(it))
}

// adapt re-forms the tree when the adaptation controller recommends a
// new shape. Called at a root once its write completes, i.e. exactly
// when a fresh PFS observation exists.
func (tr *treeRun) adapt(it int) {
	if tr.cfg.Adapt != AdaptAdaptive {
		return
	}
	curFanout, curRoots := tr.forest.Shape()
	fanout, roots, ok := tr.adapter.Recommend(it, curFanout, curRoots)
	if !ok {
		return
	}
	// The new epoch opens at the forest's fence; a shape that would leave
	// no live root is not installed.
	if from, err := tr.forest.Reform(fanout, roots); err == nil {
		tr.res.TreeReforms++
		tr.growInsitu(tr.forest.Windows(from))
	}
}

// nodeDone retires one dedicated core; the last one out closes every
// in-situ queue so consumers drain their backlog and exit (the engine
// treats an eternally parked proc as a deadlock).
func (tr *treeRun) nodeDone() {
	tr.liveNodes--
	if tr.liveNodes == 0 {
		for _, q := range tr.insituQs {
			q.close()
		}
	}
}

// deadline is when iteration it's spare window closes: the next output
// phase starts roughly one compute phase after this one began, and the
// cluster schedule wants the write done by then (§IV.C).
func (tr *treeRun) deadline(it int) float64 {
	return tr.phaseStart[it] + tr.computeAt(it)
}

// runNode is one dedicated core's life in tree mode: per iteration,
// merge the node's own output with the children's subtree volumes, then
// either forward upward over the NIC or — at a root — stripe the merged
// payload onto the backend as few large sequential streams. The parent
// and the coverage requirement come from the iteration's topology
// epoch, re-read every iteration: a failure elsewhere can re-route this
// node, and a re-formation can change its role for *later* iterations
// while the in-flight ones keep their original tree. A node's own
// scheduled death ends its loop.
func (tr *treeRun) runNode(p *des.Proc, shm *nodeShm, node int) {
	defer tr.nodeDone()
	cfg, be, res := tr.cfg, tr.be, tr.res
	plat := cfg.Platform
	fileSeq := 0
	failAt, willFail := tr.failures.At(node)

	for it := 0; it < cfg.Workload.Iterations; it++ {
		item, ok := shm.take(p)
		if !ok {
			return
		}
		if willFail && item.iter >= failAt {
			tr.failNode(shm, node, item)
			return
		}
		// Routing decision point: the first Route call fences iteration
		// item.iter — from here on it flows through this epoch's tree on
		// every node. The node then idles (awaiting stragglers is not
		// work) until the forest says its coverage is met; every wake
		// re-asks, because a failure elsewhere can shrink the requirement
		// or re-route this node meanwhile.
		agg := tr.aggs[node]
		agg.cover(item.iter, node)
		d := tr.forest.Route(node, item.iter, agg.covered[item.iter])
		for d.Kind == cluster.NotReady {
			agg.waiting.wait(p, tr.eng)
			d = tr.forest.Route(node, item.iter, agg.covered[item.iter])
		}
		childBytes, covers := agg.take(item.iter)
		subtree := item.bytes + childBytes

		t1 := p.Now()
		if d.Kind == cluster.Forward {
			if subtree > 0 {
				// Store-and-forward: the sender serializes the batch onto
				// its NIC (at the trace's current effective bandwidth);
				// the parent sees it after latency.
				tSend := p.Now()
				p.Wait(subtree/(plat.NICBandwidth*tr.nicFactor) + plat.NICLatency)
				if el := p.Now() - tSend; el > 0 {
					tr.adapter.ObserveNIC(subtree / el)
				}
			}
			// The parent may have died during the transfer: the forest then
			// relays along its drain chain, as the runtime's dead
			// aggregators do, or has nowhere left to send it.
			if !tr.forest.Alive(d.To) {
				d = tr.forest.Route(d.To, item.iter, nil)
			}
			if d.Kind == cluster.Lose {
				res.LostBytes += subtree
			} else {
				tr.aggs[d.To].deliver(item.iter, subtree, covers)
			}
		} else {
			tr.forest.RootDone(item.iter, len(covers))
			ord, stripes, numRoots := d.Window, tr.stripes(item.iter), tr.forest.Windows(item.iter)
			if cfg.InSitu.Mode == InSituStream {
				// Streaming coupling: the consumer sees the merged frame
				// the moment aggregation completes, overlapped with the
				// write below. Only a Block-policy consumer can delay the
				// write path here (measured in StreamBlockTime).
				tr.publishInSitu(p, ord, shmIter{iter: item.iter, bytes: subtree})
			}
			if subtree > 0 {
				files := cfg.FilesPerIter
				per := subtree / float64(files)
				for f := 0; f < files; f++ {
					// Spread root files over the target array, stripes-wide
					// windows per file so roots do not collide.
					base := ((ord + fileSeq*numRoots) * stripes) % be.Targets()
					fileSeq++
					release := tr.schedule.acquire(p, writeReq{
						holder:   node,
						base:     base,
						stripes:  stripes,
						deadline: tr.deadline(item.iter),
						bytes:    subtree,
					})
					be.Create(p)
					tw := p.Now()
					stripeAcross(p, be.WriteAsync, base, stripes, be.Targets(), per)
					if el := p.Now() - tw; el > 0 {
						tr.adapter.ObservePFS(per / float64(stripes) / el)
					}
					be.Close(p)
					release()
					res.FilesCreated++
				}
				if p.Now() > tr.writeEnd[item.iter] {
					tr.writeEnd[item.iter] = p.Now()
				}
				tr.adapt(item.iter)
			}
			if cfg.InSitu.Mode == InSituFile {
				// File-then-read coupling: the frame is only announced
				// once the object is durable; the consumer pays the
				// read-back before analyzing.
				tr.publishInSitu(p, ord, shmIter{iter: item.iter, bytes: subtree})
			}
		}
		shm.free(item.bytes)
		res.DedicatedBusy += p.Now() - t1
	}
}

// stripeAcross runs one big sequential transfer (be.WriteAsync or
// be.ReadAsync) of bytes split evenly over a root window — stripes
// targets from base, wrapping at targets — and waits for all of it.
func stripeAcross(p *des.Proc, io func(int, float64, storage.Pattern) *des.Future,
	base, stripes, targets int, bytes float64) {

	futs := make([]*des.Future, stripes)
	for s := range futs {
		futs[s] = io((base+s)%targets, bytes/float64(stripes), storage.BigSequential)
	}
	for _, f := range futs {
		p.Await(f)
	}
}

// failNode executes one scheduled death on the DES side, mirroring
// Cluster.killNode: fail the node in the forest (every epoch re-routes,
// promoted roots inherit windows), free any scheduling tokens the dead
// node holds or waits for, hand each in-flight aggregation to its own
// iteration's drain target with its coverage intact, account the lost
// own output, and wake every parked dedicated core so it re-asks the
// forest against its new coverage requirement.
func (tr *treeRun) failNode(shm *nodeShm, node int, item shmIter) {
	res := tr.res
	edges, _ := tr.forest.Fail(node, item.iter)
	res.NodesFailed++
	res.ReroutedEdges += len(edges)
	// A dead root must not strand an OST token for the rest of the run:
	// whatever it held or queued for goes back to the broker.
	tr.schedule.releaseHolder(node)
	// The triggering iteration's own output is the mid-iteration loss;
	// kill() charges whatever else the segment held or receives later.
	res.LostBytes += item.bytes
	shm.kill()

	a := tr.aggs[node]
	for _, it := range sortedIntKeys(a.covered) {
		if d := tr.forest.Route(node, it, nil); d.Kind == cluster.Drain {
			tr.aggs[d.To].deliver(it, a.bytes[it], sortedIntKeys(a.covered[it]))
			delete(a.covered, it)
			delete(a.bytes, it)
		}
	}
	// Orphans with no drain target stay in a.bytes and are swept into
	// LostBytes after the run.
	for _, other := range tr.aggs {
		other.waiting.wake()
	}
	// The machine shrank: an adaptive run may want a different forest.
	tr.adapter.Disturb()
}
