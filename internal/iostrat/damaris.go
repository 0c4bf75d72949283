package iostrat

import (
	"fmt"
	"slices"

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

// parked is the DES face's condition variable: at most one actor waits
// on it, and whoever changes what it waits for wakes it to look again,
// in an event of the actor's kind booked at the wake.
type parked struct {
	eng   *des.Engine
	kind  des.Kind
	actor int32
	on    bool // the actor waits
}

func (w *parked) wake() {
	if w.on {
		w.on = false
		w.eng.Post(0, w.kind, w.actor)
	}
}

// nodeShm models one node's shared-memory segment between simulation
// cores and the dedicated core: bounded capacity, a FIFO of pending
// iterations, and the paper's §V.C policy of *skipping* an iteration
// (rather than blocking the simulation) when the segment is full.
type nodeShm struct {
	capacity float64
	occupied float64
	pending  []shmIter
	waiting  parked // dedicated core, on an empty queue
	skipped  int
	copies   int // simulation cores' copies in so far
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

// take pops the next pending iteration. With none pending it reports
// false and, unless the segment is closed, parks the dedicated core.
func (s *nodeShm) take() (shmIter, bool) {
	if len(s.pending) == 0 {
		s.waiting.on = !s.closed
		return shmIter{}, false
	}
	it := s.pending[0]
	s.pending = append(s.pending[:0], s.pending[1:]...)
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

	treeMode := cfg.Fanout >= 2

	res := Result{Approach: Damaris, Platform: plat, Workload: w}

	// The dedicated cores, by node (D cores share the node's busy time),
	// share one broker: the schedule is cluster-wide, not per backend
	// stream. A node's shm queue holds two iterations before it grows.
	tr := &damarisRun{cfg: cfg, eng: eng, be: be, res: &res, tree: treeMode, nicFactor: 1, liveNodes: plat.Nodes,
		failures:  cfg.Failures.WithTrace(trace),
		computeAt: computeAt, nodeBytesAt: nodeBytesAt, varsAt: varsAt, computePerNode: computePerNode,
		schedule: newScheduler(eng, cfg.Scheduling, be.Targets()),
		shms:     make([]nodeShm, plat.Nodes), cores: make([]dedicatedCore, plat.Nodes)}
	tr.step = tr.continueCore
	tr.kStep, tr.kConsume = eng.Handle(tr.step), eng.Handle(tr.consume)
	tr.kResume = eng.Handle(func(o int32) { tr.insituQs[o].resume() })
	pending := make([]shmIter, 2*plat.Nodes)
	for n := range tr.shms {
		tr.shms[n] = nodeShm{capacity: cfg.ShmCapacity, pending: pending[2*n : 2*n : 2*n+2],
			waiting: parked{eng: eng, kind: tr.kStep, actor: int32(n)}}
		tr.cores[n].asking = tr.shms[n].waiting
	}

	// Platform shifts: rank 0 applies the trace's cumulative factors at
	// the phase start of the shift's iteration. NIC shifts scale the
	// tree-mode forward bandwidth; PFS shifts reach the storage model
	// under the cost stack; both (and rejoins) disturb the adaptation
	// controller so it re-evaluates the forest shape.
	adapter := cluster.NewAdapter(plat.Nodes, be.Targets(), w.Iterations,
		plat.NICBandwidth, plat.PFS.OSTBandwidth, nodeBytesAt)
	shifter, _ := baseBE.(bandwidthShifter)
	curNIC, curPFS := 1.0, 1.0
	applyShifts := func(it int) {
		if trace == nil || len(trace.ShiftsAt(it)) == 0 {
			return
		}
		if f := trace.NICFactorAt(it); f != curNIC {
			curNIC, tr.nicFactor = f, f
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
	tr.loop = newPhaseLoop(eng, &res, nComputeRanks, w.Iterations, w.ComputeJitter, root.Named("compute"),
		computeAt, func(it int) {
			be.BeginPhase()
			applyShifts(it)
		}, tr.copyOut)
	tr.loop.finish = func() {
		for n := range tr.shms {
			tr.shms[n].close()
		}
	}
	tr.copied = newWakeList(eng, nComputeRanks, tr.onCopied)
	tr.loop.start()
	phaseStart := tr.loop.phaseStart

	if treeMode {
		tr.adapter, tr.forest = adapter, cluster.NewForest(plat.Nodes, cfg.Fanout, cfg.AggRoots)
		tr.gathers, tr.writeEnd = make([]*cluster.Gather[float64], plat.Nodes), make([]float64, w.Iterations)
		for n := range tr.gathers {
			// A subtree's volume is the sum of its contributions, in
			// arrival order.
			tr.gathers[n] = cluster.NewGather(tr.forest, n, func(held, in float64) float64 { return held + in })
			tr.cores[n].self = cluster.CoverOf(n)
		}
		// One bounded frame queue and one analysis consumer per root
		// window — a promoted root inherits its predecessor's queue
		// along with the stripe window, and re-formations that widen
		// the root set grow the array mid-run.
		tr.growInsitu(tr.forest.Windows(0))
	}
	for n := range tr.cores {
		eng.Post(0, tr.kStep, int32(n))
	}

	drainEnd := eng.Run()
	res.DrainTime = drainEnd
	res.account(be)
	bs := tr.schedule.brokerStats()
	res.SchedWaitTime = bs.WaitTime
	res.RootContention = bs.ContendedGrants
	res.DedicatedTotal = float64(plat.Nodes*dedicatedPerNode) * drainEnd
	for n, s := range tr.shms {
		if res.SkippedIters += s.skipped; s.waiting.on || tr.cores[n].asking.on {
			panic(fmt.Sprintf("iostrat: deadlock: node %d's dedicated core is parked at the end", n))
		}
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
		for _, s := range tr.shms {
			res.LostBytes += s.lost
		}
		for _, q := range tr.insituQs {
			if res.FramesDropped += int(q.frames.Dropped()); q.waiting.on || q.space.on {
				panic("iostrat: deadlock: an in-situ consumer or publisher is parked at the end")
			}
		}
	}
	return res, nil
}

// damarisRun is the state of one Damaris run. A simulation core's output
// work, the application-visible "I/O", copies its variables into the
// node's shm segment; the last core of the node in hands the node's data
// to the dedicated core. A dedicated core is an actor by node: one
// handler, step (kind kStep), continues it from its stage after a
// transfer, a metadata operation, a token grant or a wake.
type damarisRun struct {
	cfg            Config
	eng            *des.Engine
	be             storage.CostModel
	schedule       writeScheduler
	res            *Result
	failures       *cluster.FailureSchedule
	tree           bool
	loop           *phaseLoop
	copied         *wakeList
	computePerNode int
	computeAt      func(it int) float64
	nodeBytesAt    func(it int) float64
	varsAt         func(it int) int
	shms           []nodeShm
	cores          []dedicatedCore

	step                     func(node int32) // continueCore, bound once
	kStep, kConsume, kResume des.Kind

	// gathers holds, per node, the children's subtree volumes gathered so
	// far; forest is the routing protocol shared with the runtime
	// cluster, driven here from the single simulation thread.
	gathers  []*cluster.Gather[float64]
	forest   *cluster.Forest
	writeEnd []float64 // per iteration, last root-write completion

	// nicFactor is the trace's current cumulative NIC multiplier (1
	// without shifts). adapter is the controller shared with the runtime
	// face: every timed forward and root stripe write is one observation,
	// every shift, death and rejoin one disturbance; only AdaptAdaptive
	// applies its recommendations.
	nicFactor float64
	adapter   *cluster.Adapter

	// insituQs holds one analysis frame queue per root ordinal (nil
	// when Config.InSitu is off); liveNodes counts dedicated cores
	// still running, so the queues close — releasing the consumers —
	// exactly when no publisher remains.
	insituQs  []*insituQ
	liveNodes int
}

// dedicatedCore is one node's dedicated core. Per iteration it takes the
// node's output from shm and, in flat mode, writes it as FilesPerIter
// files; in tree mode it merges it with the children's subtree volumes,
// then forwards the merge over the NIC or, at a root, stripes it onto the
// backend. The parent and the coverage requirement come from the
// iteration's topology epoch, re-read every iteration: a failure can
// re-route the node, and a re-formation change its role for later
// iterations. A node's own scheduled death ends its loop.
type dedicatedCore struct {
	stage  coreStage
	asking parked        // tree mode: parked on missing coverage
	it     int           // tree mode: the iterations taken
	self   cluster.Cover // tree mode: what the node's own output covers

	item    shmIter // the iteration in hand
	t0, tw  float64 // when its work began; when the transfer in hand began
	d       cluster.Decision
	subtree float64 // tree mode: own bytes plus the children's
	covers  cluster.Cover

	// The files: how many are left, the next one's number, and the one in
	// hand's first target, stripes, size, pattern, token and transfers.
	files, fileSeq, base, stripes int
	per                           float64
	pat                           storage.Pattern
	grant                         storage.TokenGrant
	written                       stripeWait
}

// coreStage is what a dedicated core's step does next.
type coreStage uint8

const (
	coreTake     coreStage = iota // take the next iteration from shm (also a parked take's wake)
	coreAsk                       // ask the forest where it goes (a parked ask's wake)
	coreSent                      // a forwarded merge arrived
	coreStreamed                  // a root's merge was offered for streaming analysis
	coreGranted                   // the file's token is granted: create it
	coreCreated                   // write it
	coreWritten                   // close it once written
	coreClosed                    // return its token, then write the next file
	coreStored                    // a root's merge was offered for analysis of the stored file
)

func (tr *damarisRun) copyOut(i int32) {
	it, plat := tr.loop.ranks[i].it, tr.cfg.Platform
	tr.copied.post(tr.nodeBytesAt(it)/float64(tr.computePerNode)/plat.ShmBandwidth+
		float64(tr.varsAt(it))*plat.ShmWriteOverhead, i)
}

func (tr *damarisRun) onCopied(i int32) {
	it, node := tr.loop.ranks[i].it, int(i)/tr.computePerNode
	if tr.shms[node].copies++; tr.shms[node].copies%tr.computePerNode == 0 {
		if !tr.shms[node].offer(it, tr.nodeBytesAt(it)) && tr.tree {
			// Data lost, but the node must still take part in the
			// aggregation round.
			tr.shms[node].offerEmpty(it)
		}
	}
	tr.loop.wrote(i)
}

// continueCore continues node n's dedicated core from its stage.
func (tr *damarisRun) continueCore(n int32) {
	c := &tr.cores[n]
	switch c.stage {
	case coreTake:
		tr.take(n)
	case coreAsk:
		tr.ask(n)
	case coreSent:
		// The parent may have died during the transfer: the forest then
		// relays along its drain chain, as the runtime's dead aggregators
		// do, or has nowhere left to send it.
		if el := tr.eng.Now() - c.tw; el > 0 {
			tr.adapter.ObserveNIC(c.subtree / el)
		}
		d, it := c.d, c.item.iter
		if !tr.forest.Alive(d.To) {
			d = tr.forest.Flush(d.To, it)
		}
		if d.Kind == cluster.Lose {
			tr.res.LostBytes += c.subtree
		} else {
			tr.deliver(d.To, it, c.subtree, c.covers)
		}
		tr.done(n)
	case coreStreamed:
		if c.subtree <= 0 {
			tr.publish(n, InSituFile, coreStored)
			return
		}
		c.per, c.files = c.subtree/float64(tr.cfg.FilesPerIter), tr.cfg.FilesPerIter
		tr.nextFile(n)
	case coreGranted:
		c.stage = coreCreated
		tr.be.Create(tr.step, n)
	case coreCreated:
		c.stage = coreWritten
		if !tr.tree {
			tr.be.Write(c.base, c.per, c.pat).ThenPost(tr.kStep, n)
			return
		}
		c.tw = tr.eng.Now()
		c.written.start(tr.be.Write, c.base, c.stripes, tr.be.Targets(), c.per)
		fallthrough
	case coreWritten:
		if tr.tree {
			if !c.written.await(tr.kStep, n) {
				return
			}
			if el := tr.eng.Now() - c.tw; el > 0 {
				tr.adapter.ObservePFS(c.per / float64(c.stripes) / el)
			}
		}
		c.stage = coreClosed
		tr.be.Close(tr.step, n)
	case coreClosed:
		c.grant.Release()
		tr.res.FilesCreated++
		tr.nextFile(n)
	case coreStored:
		tr.done(n)
	}
}

// take starts node n's next iteration once its segment holds one; a
// closed, drained segment or (tree mode) the last iteration ends the core.
func (tr *damarisRun) take(n int32) {
	c, shm := &tr.cores[n], &tr.shms[n]
	c.stage = coreTake
	if tr.tree && c.it == tr.cfg.Workload.Iterations {
		tr.nodeDone()
		return
	}
	item, ok := shm.take()
	failAt, willFail := tr.failures.At(int(n))
	switch {
	case !ok:
		if shm.closed && tr.tree {
			tr.nodeDone()
		}
	case !tr.tree:
		c.item, c.t0 = item, tr.eng.Now()
		c.per, c.files, c.pat = item.bytes/float64(tr.cfg.FilesPerIter), tr.cfg.FilesPerIter, storage.BigSequential
		if c.per < 64e6 {
			c.pat = storage.SmallFile
		}
		tr.nextFile(n)
	case willFail && item.iter >= failAt:
		tr.failNode(n, item)
		tr.nodeDone()
	default:
		c.item = item
		c.it++
		tr.gathers[n].Deliver(item.iter, 0, c.self)
		tr.ask(n)
	}
}

// ask is the routing decision point: the first ask fences iteration
// c.item.iter — from here on it flows through this epoch's tree on every
// node. The node then idles (awaiting stragglers is not work) until the
// forest says its coverage is met; every wake re-asks, because a failure
// elsewhere can shrink the requirement or re-route this node meanwhile.
// The node's own bytes join the children's after the gather, so a
// subtree is own + Σchildren. A node forwards its subtree by
// store-and-forward: it serializes the batch onto its NIC (at the
// trace's current effective bandwidth) and the parent sees it after
// latency. A root stores it as FilesPerIter files striped over the
// root's window. Under streaming coupling the in-situ consumer sees the
// merged frame the moment aggregation completes, overlapped with the
// write (only a Block-policy consumer can delay the write path, measured
// in StreamBlockTime); under file-then-read coupling the frame is only
// announced once the object is durable, and the consumer pays the
// read-back.
func (tr *damarisRun) ask(n int32) {
	c, plat := &tr.cores[n], tr.cfg.Platform
	d, childBytes, covers := tr.gathers[n].Ask(c.item.iter)
	if d.Kind == cluster.NotReady {
		c.stage, c.asking.on = coreAsk, true
		return
	}
	c.d, c.subtree, c.covers, c.t0, c.tw = d, c.item.bytes+childBytes, covers, tr.eng.Now(), tr.eng.Now()
	if d.Kind != cluster.Forward {
		tr.forest.RootDone(c.item.iter, covers.Len())
		c.stripes = tr.stripes(c.item.iter)
		tr.publish(n, InSituStream, coreStreamed)
		return
	}
	if c.stage = coreSent; c.subtree <= 0 {
		tr.step(n) // sent at once
		return
	}
	tr.eng.Post(c.subtree/(plat.NICBandwidth*tr.nicFactor)+plat.NICLatency, tr.kStep, n)
}

// done ends node n's iteration, freeing its segment space.
func (tr *damarisRun) done(n int32) {
	c := &tr.cores[n]
	tr.shms[n].free(c.item.bytes)
	tr.res.DedicatedBusy += tr.eng.Now() - c.t0
	tr.take(n)
}

// stripes is the width of a root's stripe window for iteration it: the
// write path, the in-situ read-back and (through the same rule) the
// restart-read model all price the layout of the iteration's own epoch.
func (tr *damarisRun) stripes(it int) int {
	return cluster.StripeWidth(tr.cfg.RootStripes, tr.be.Targets(), tr.forest.Windows(it))
}

// adapt re-forms the tree when the adaptation controller recommends a
// new shape. Called at a root once its write completes, i.e. exactly
// when a fresh PFS observation exists.
func (tr *damarisRun) adapt(it int) {
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
// in-situ queue so consumers drain their backlog and exit (a consumer
// parked forever would be a deadlock).
func (tr *damarisRun) nodeDone() {
	tr.liveNodes--
	if tr.liveNodes == 0 {
		for _, q := range tr.insituQs {
			q.close()
		}
	}
}

// nextFile writes node n's next file under the run's write scheduler, or
// ends the write after the last: each file takes its token, is created,
// written, closed and counted, and returns its token.
func (tr *damarisRun) nextFile(n int32) {
	c := &tr.cores[n]
	if c.files == 0 && !tr.tree {
		tr.done(n)
		return
	} else if c.files == 0 { // a root: the controller adapts, analysis reads the file
		tr.writeEnd[c.item.iter] = max(tr.writeEnd[c.item.iter], tr.eng.Now())
		tr.adapt(c.item.iter)
		tr.publish(n, InSituFile, coreStored)
		return
	}
	// The iteration's spare window closes roughly one compute phase after
	// its output phase began, and the schedule wants the write done by
	// then (§IV.C).
	c.files--
	it := c.item.iter
	req := writeReq{holder: int(n), stripes: 1, deadline: tr.loop.phaseStart[it] + tr.computeAt(it), bytes: c.per}
	if tr.tree {
		// Spread root files over the target array, stripes-wide windows
		// per file so roots do not collide.
		c.base = ((c.d.Window + c.fileSeq*tr.forest.Windows(it)) * c.stripes) % tr.be.Targets()
		req.stripes, req.bytes = c.stripes, c.subtree
	} else {
		// Usage-balanced allocation (Lustre QoS allocator): spread node
		// files round-robin over the OSTs.
		c.base = (int(n) + c.fileSeq*tr.cfg.Platform.Nodes) % tr.be.Targets()
	}
	req.base = c.base
	c.fileSeq++
	c.stage = coreGranted
	tr.schedule.acquire(req, &c.grant, tr.step, n)
}

// deliver merges a contribution to iteration it into node to's gather
// and wakes that node's dedicated core to ask again.
func (tr *damarisRun) deliver(to, it int, bytes float64, c cluster.Cover) {
	tr.gathers[to].Deliver(it, bytes, c)
	tr.cores[to].asking.wake()
}

// stripeWait is one big sequential transfer (be.Write or be.Read) split
// evenly over a root window — stripes targets from base, wrapping at
// targets — waited for in stripe order, so a stripe that is done by the
// time its turn comes costs no event. Its owner keeps it for reuse.
type stripeWait struct {
	futs []*des.Future
	next int
}

func (w *stripeWait) start(io func(int, float64, storage.Pattern) *des.Future, base, stripes, targets int, bytes float64) {
	w.futs, w.next = slices.Grow(w.futs[:0], stripes), 0
	for s := range stripes {
		w.futs = append(w.futs, io((base+s)%targets, bytes/float64(stripes), storage.BigSequential))
	}
}

// await reports whether every stripe is done; if not, actor's handler
// of kind k follows the first one still in flight, to await again.
func (w *stripeWait) await(k des.Kind, actor int32) bool {
	for ; w.next < len(w.futs); w.next++ {
		if f := w.futs[w.next]; !f.Done() {
			f.ThenPost(k, actor)
			return false
		}
	}
	return true
}

// failNode executes one scheduled death on the DES side, mirroring
// Cluster.killNode: fail the node in the forest (every epoch re-routes,
// promoted roots inherit windows), free any scheduling tokens the dead
// node holds or waits for, hand each in-flight aggregation to its own
// iteration's drain target with its coverage intact, account the lost
// own output, and wake every parked dedicated core so it re-asks the
// forest against its new coverage requirement.
func (tr *damarisRun) failNode(node int32, item shmIter) {
	res := tr.res
	edges, _ := tr.forest.Fail(int(node), item.iter)
	res.NodesFailed++
	res.ReroutedEdges += len(edges)
	// A dead root must not strand an OST token for the rest of the run:
	// whatever it held or queued for goes back to the broker.
	tr.schedule.releaseHolder(int(node))
	// The triggering iteration's own output is the mid-iteration loss;
	// kill() charges whatever else the segment held or receives later.
	res.LostBytes += item.bytes
	tr.shms[node].kill()

	tr.gathers[node].Step(true, func(it int, d cluster.Decision, b float64, c cluster.Cover) bool {
		if d.Kind != cluster.Drain {
			// An orphan with no drain target stays held; the end-of-run
			// sweep counts it into LostBytes.
			return true
		}
		tr.deliver(d.To, it, b, c)
		return false
	})
	for n := range tr.cores {
		tr.cores[n].asking.wake()
	}
	// The machine shrank: an adaptive run may want a different forest.
	tr.adapter.Disturb()
}
