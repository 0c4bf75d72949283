package iostrat

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/workload"
)

// dedicatedPerNode is the number of cores per node removed from
// computation and devoted to I/O, as in every configuration the paper
// evaluates.
const dedicatedPerNode = 1

// parked is the DES face's condition variable: at most one continuation
// waits on it, and whoever changes what it waits for wakes it to look
// again. It waits on a future, so Run reports one nobody wakes.
type parked struct{ f *des.Future }

func (w *parked) wait(eng *des.Engine, k func()) {
	w.f = eng.NewFuture()
	w.f.Then(k)
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

// take runs k with the next pending iteration once there is one,
// parking the dedicated core until then; k gets false when the segment
// is closed and drained.
func (s *nodeShm) take(k func(shmIter, bool)) {
	if len(s.pending) == 0 {
		if s.closed {
			k(shmIter{}, false)
		} else {
			s.waiting.wait(s.eng, func() { s.take(k) })
		}
		return
	}
	it := s.pending[0]
	s.pending = s.pending[1:]
	k(it, true)
}

// free releases an iteration's bytes after the dedicated core wrote them.
func (s *nodeShm) free(bytes float64) { s.occupied -= bytes }

// close marks the producer finished; a parked dedicated core is woken to
// observe the closure.
func (s *nodeShm) close() {
	s.closed = true
	s.waiting.wake()
}

// bandwidthShifter is the model-level knob scenario PFS shifts reach
// under the cost stack (implemented by storage.PFS).
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
	be, baseBE, err := cfg.newCostModel(eng, root.Named("pfs"))
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

	res := Result{Approach: Damaris, Platform: plat, Workload: w}

	shms := make([]*nodeShm, plat.Nodes)
	for n := range shms {
		shms[n] = &nodeShm{eng: eng, capacity: cfg.ShmCapacity}
	}

	// One broker per run, shared by every dedicated core and tree root:
	// the schedule is cluster-wide, not per backend stream.
	schedule := newScheduler(eng, cfg.Scheduling, be.Targets())

	// Platform shifts: rank 0 applies the trace's cumulative factors at
	// the phase start of the shift's iteration. NIC shifts scale the
	// tree-mode forward bandwidth; PFS shifts reach the storage model
	// under the cost stack; both (and rejoins) disturb the adaptation
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
	sims := &simRun{
		plat:           plat,
		computePerNode: computePerNode,
		treeMode:       treeMode,
		shms:           shms,
		copies:         make([]int, plat.Nodes),
		nodeBytesAt:    nodeBytesAt,
		varsAt:         varsAt,
	}
	sims.loop = newPhaseLoop(eng, &res, nComputeRanks, w.Iterations, w.ComputeJitter, root.Named("compute"),
		computeAt, func(it int) {
			be.BeginPhase()
			applyShifts(it)
		}, sims.copyOut)
	sims.loop.finish = func() {
		for _, s := range shms {
			s.close()
		}
	}
	sims.copied = newBatch(eng, nComputeRanks, sims.onCopied)
	sims.loop.start()
	phaseStart := sims.loop.phaseStart

	// Dedicated cores (one writer loop per node; D dedicated cores share
	// the same work, so busy time is attributed to the node's pool).
	if treeMode {
		tr = &treeRun{
			cfg:        cfg,
			eng:        eng,
			be:         be,
			schedule:   schedule,
			res:        &res,
			gathers:    make([]*cluster.Gather[float64], plat.Nodes),
			waiting:    make([]parked, plat.Nodes),
			failures:   failures,
			forest:     cluster.NewForest(plat.Nodes, cfg.Fanout, cfg.AggRoots),
			writeEnd:   make([]float64, w.Iterations),
			phaseStart: phaseStart,
			computeAt:  computeAt,
			nicFactor:  1,
			adapter:    adapter,
			liveNodes:  plat.Nodes,
		}
		for n := range tr.gathers {
			// A subtree's volume is the sum of its contributions, in
			// arrival order.
			tr.gathers[n] = cluster.NewGather(tr.forest, n, func(held, in float64) float64 { return held + in })
		}
		// One bounded frame queue and one analysis consumer per root
		// window — a promoted root inherits its predecessor's queue
		// along with the stripe window, and re-formations that widen
		// the root set grow the array mid-run.
		tr.growInsitu(tr.forest.Windows(0))
	}
	for node, shm := range shms {
		if treeMode {
			eng.Wait(0, func() { tr.runNode(shm, node) })
			continue
		}
		fileSeq := 0
		var next func()
		next = func() {
			shm.take(func(item shmIter, ok bool) {
				if !ok {
					return
				}
				t0 := eng.Now()
				per := item.bytes / float64(cfg.FilesPerIter)
				pat := storage.BigSequential
				if per < 64e6 {
					pat = storage.SmallFile
				}
				writeFiles(schedule, be, &res, cfg.FilesPerIter, func() (writeReq, func(func())) {
					// Usage-balanced allocation (Lustre QoS allocator):
					// spread node files round-robin over the OSTs.
					ost := (node + fileSeq*plat.Nodes) % be.Targets()
					fileSeq++
					req := writeReq{holder: node, base: ost, stripes: 1,
						deadline: phaseStart[item.iter] + computeAt(item.iter), bytes: per}
					return req, func(k func()) { be.Write(ost, per, pat).Then(k) }
				}, func() {
					shm.free(item.bytes)
					res.DedicatedBusy += eng.Now() - t0
					next()
				})
			})
		}
		eng.Wait(0, next)
	}

	drainEnd := eng.Run()
	res.DrainTime = drainEnd
	res.account(be)
	bs := schedule.brokerStats()
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
		for _, g := range tr.gathers {
			g.Held(func(_ int, b float64, _ cluster.Cover) { res.LostBytes += b })
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

// simRun is the state the simulation cores of one Damaris run share.
// A simulation core's output work is the application-visible "I/O":
// copying its variables into the node's shared-memory segment; the last
// core of the node in hands the node's data to the dedicated core.
type simRun struct {
	loop           *phaseLoop
	copied         *batch
	plat           topology.Platform
	computePerNode int
	treeMode       bool
	shms           []*nodeShm
	copies         []int // per node, the copies done so far
	nodeBytesAt    func(it int) float64
	varsAt         func(it int) int
}

func (run *simRun) copyOut(i int32) {
	it := run.loop.ranks[i].it
	run.copied.post(run.nodeBytesAt(it)/float64(run.computePerNode)/run.plat.ShmBandwidth+
		float64(run.varsAt(it))*run.plat.ShmWriteOverhead, i)
}

func (run *simRun) onCopied(i int32) {
	it, node := run.loop.ranks[i].it, int(i)/run.computePerNode
	if run.copies[node]++; run.copies[node]%run.computePerNode == 0 {
		if !run.shms[node].offer(it, run.nodeBytesAt(it)) && run.treeMode {
			// Data lost, but the node must still take part in the
			// aggregation round.
			run.shms[node].offerEmpty(it)
		}
	}
	run.loop.wrote(i)
}

// treeRun bundles the state shared by every dedicated core of a
// tree-mode run: the routing forest, the per-node gathers, the shared
// write scheduler, the adaptation controller and the per-iteration
// measurements.
type treeRun struct {
	cfg      Config
	eng      *des.Engine
	be       storage.CostModel
	schedule writeScheduler
	res      *Result
	failures *cluster.FailureSchedule

	// Per node: the children's subtree volumes gathered so far, and the
	// dedicated core parked on missing coverage.
	gathers []*cluster.Gather[float64]
	waiting []parked

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
	// still running, so the queues close — releasing the consumers —
	// exactly when no publisher remains.
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
// treats a consumer parked forever as a deadlock).
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
// scheduled death ends its loop. The loop's steps are built once, and
// each runs inside the event that ends the step before it.
func (tr *treeRun) runNode(shm *nodeShm, node int) {
	failAt, willFail := tr.failures.At(node)
	self := cluster.CoverOf(node) // what the node's own output covers
	g := tr.gathers[node]
	var c struct { // the loop's state
		it, fileSeq int
		item        shmIter
		t1          float64 // when this iteration's work began
	}
	var next, ask func()
	done := func() {
		shm.free(c.item.bytes)
		tr.res.DedicatedBusy += tr.eng.Now() - c.t1
		next()
	}
	// Routing decision point: the first ask fences iteration c.item.iter
	// — from here on it flows through this epoch's tree on every node.
	// The node then idles (awaiting stragglers is not work) until the
	// forest says its coverage is met; every wake re-asks, because a
	// failure elsewhere can shrink the requirement or re-route this node
	// meanwhile. The node's own bytes join the children's after the
	// gather, so a subtree is own + Σchildren.
	ask = func() {
		d, childBytes, covers := g.Ask(c.item.iter)
		if d.Kind == cluster.NotReady {
			tr.waiting[node].wait(tr.eng, ask)
			return
		}
		subtree := c.item.bytes + childBytes
		c.t1 = tr.eng.Now()
		if d.Kind == cluster.Forward {
			tr.forward(d, c.item.iter, subtree, covers, done)
		} else {
			tr.storeRoot(node, &c.fileSeq, d, c.item.iter, subtree, covers, done)
		}
	}
	taken := func(item shmIter, ok bool) {
		switch {
		case !ok:
		case willFail && item.iter >= failAt:
			tr.failNode(shm, node, item)
		default:
			c.item = item
			g.Deliver(item.iter, 0, self)
			ask()
			return
		}
		tr.nodeDone()
	}
	next = func() {
		if c.it == tr.cfg.Workload.Iterations {
			tr.nodeDone()
			return
		}
		c.it++
		shm.take(taken)
	}
	next()
}

// forward sends a subtree up to d.To, then runs k: store-and-forward,
// the sender serializes the batch onto its NIC (at the trace's current
// effective bandwidth) and the parent sees it after latency.
func (tr *treeRun) forward(d cluster.Decision, it int, subtree float64, covers cluster.Cover, k func()) {
	if subtree <= 0 {
		tr.sent(d, it, subtree, covers, k)
		return
	}
	plat := tr.cfg.Platform
	tSend := tr.eng.Now()
	tr.eng.Wait(subtree/(plat.NICBandwidth*tr.nicFactor)+plat.NICLatency, func() {
		if el := tr.eng.Now() - tSend; el > 0 {
			tr.adapter.ObserveNIC(subtree / el)
		}
		tr.sent(d, it, subtree, covers, k)
	})
}

// sent hands a forwarded subtree to its parent, then runs k. The parent
// may have died during the transfer: the forest then relays along its
// drain chain, as the runtime's dead aggregators do, or has nowhere left
// to send it.
func (tr *treeRun) sent(d cluster.Decision, it int, subtree float64, covers cluster.Cover, k func()) {
	if !tr.forest.Alive(d.To) {
		d = tr.forest.Flush(d.To, it)
	}
	if d.Kind == cluster.Lose {
		tr.res.LostBytes += subtree
	} else {
		tr.deliver(d.To, it, subtree, covers)
	}
	k()
}

// storeRoot stores a root's merged iteration it as FilesPerIter files
// striped over the root's window, then runs k. Under streaming
// coupling the in-situ consumer sees the merged frame the moment
// aggregation completes, overlapped with the write (only a Block-policy
// consumer can delay the write path, measured in StreamBlockTime);
// under file-then-read coupling the frame is only announced once the
// object is durable, and the consumer pays the read-back.
func (tr *treeRun) storeRoot(node int, fileSeq *int, d cluster.Decision, it int, subtree float64,
	covers cluster.Cover, k func()) {

	cfg, be := tr.cfg, tr.be
	tr.forest.RootDone(it, covers.Len())
	ord, stripes, numRoots := d.Window, tr.stripes(it), tr.forest.Windows(it)
	frame := shmIter{iter: it, bytes: subtree}
	tr.publishInSitu(InSituStream, ord, frame, func() {
		if subtree <= 0 {
			tr.publishInSitu(InSituFile, ord, frame, k)
			return
		}
		per := subtree / float64(cfg.FilesPerIter)
		writeFiles(tr.schedule, be, tr.res, cfg.FilesPerIter, func() (writeReq, func(func())) {
			// Spread root files over the target array, stripes-wide
			// windows per file so roots do not collide.
			base := ((ord + *fileSeq*numRoots) * stripes) % be.Targets()
			*fileSeq++
			req := writeReq{holder: node, base: base, stripes: stripes, deadline: tr.deadline(it), bytes: subtree}
			return req, func(k func()) {
				tw := tr.eng.Now()
				stripeAcross(be.Write, base, stripes, be.Targets(), per, func() {
					if el := tr.eng.Now() - tw; el > 0 {
						tr.adapter.ObservePFS(per / float64(stripes) / el)
					}
					k()
				})
			}
		}, func() {
			if tr.eng.Now() > tr.writeEnd[it] {
				tr.writeEnd[it] = tr.eng.Now()
			}
			tr.adapt(it)
			tr.publishInSitu(InSituFile, ord, frame, k)
		})
	})
}

// writeFiles writes n files one after the other under the run's write
// scheduler, then runs k. next gives the next file's token request and
// the write that fills it; each file takes its token, is created,
// written, closed and counted in res.FilesCreated, and returns its token.
func writeFiles(schedule writeScheduler, be storage.CostModel, res *Result, n int,
	next func() (writeReq, func(k func())), k func()) {

	var file func()
	file = func() {
		if n == 0 {
			k()
			return
		}
		n--
		req, write := next()
		schedule.acquire(req, func(release func()) {
			be.Create(func() {
				write(func() {
					be.Close(func() {
						release()
						res.FilesCreated++
						file()
					})
				})
			})
		})
	}
	file()
}

// deliver merges a contribution to iteration it into node to's gather
// and wakes that node's dedicated core to ask again.
func (tr *treeRun) deliver(to, it int, bytes float64, c cluster.Cover) {
	tr.gathers[to].Deliver(it, bytes, c)
	tr.waiting[to].wake()
}

// stripeAcross starts one big sequential transfer (be.Write or be.Read)
// of bytes split evenly over a root window — stripes targets from base,
// wrapping at targets — and runs k once all of it is done. It waits for
// the stripes in order, so a stripe that is done by the time its turn
// comes costs no event.
func stripeAcross(io func(int, float64, storage.Pattern) *des.Future,
	base, stripes, targets int, bytes float64, k func()) {

	w := &stripeWait{futs: make([]*des.Future, stripes), k: k}
	for s := range w.futs {
		w.futs[s] = io((base+s)%targets, bytes/float64(stripes), storage.BigSequential)
	}
	w.step = w.await
	w.await()
}

// stripeWait is stripeAcross's wait: one step, bound once, per stripe.
type stripeWait struct {
	futs    []*des.Future
	k, step func()
}

func (w *stripeWait) await() {
	for ; len(w.futs) > 0; w.futs = w.futs[1:] {
		if !w.futs[0].Done() {
			w.futs[0].Then(w.step)
			return
		}
	}
	w.k()
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

	tr.gathers[node].Step(true, func(it int, d cluster.Decision, b float64, c cluster.Cover) bool {
		if d.Kind != cluster.Drain {
			// An orphan with no drain target stays held; the end-of-run
			// sweep counts it into LostBytes.
			return true
		}
		tr.deliver(d.To, it, b, c)
		return false
	})
	for n := range tr.waiting {
		tr.waiting[n].wake()
	}
	// The machine shrank: an adaptive run may want a different forest.
	tr.adapter.Disturb()
}
