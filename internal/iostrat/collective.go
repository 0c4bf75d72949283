package iostrat

import (
	"math"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/topology"
)

// runCollective models two-phase collective I/O into a single shared file
// (the paper's §II "collective I/O" baseline): one aggregator per node
// first receives the node's data over the network, then all aggregators
// write the shared file in barriered rounds of collectiveBuffer bytes.
// File extents map round-robin onto OSTs, so each round every OST serves
// ~nAggs/nOSTs interleaved shared-file streams under extent locking, and
// the barrier lets the slowest OST pace everyone — the two mechanisms
// behind the approach's collapse at scale.
func runCollective(cfg Config) (Result, error) {
	eng := des.NewEngine()
	root := rng.New(cfg.Seed, 2)
	be, _, err := cfg.newCostModel(eng, root.Named("pfs"))
	if err != nil {
		return Result{}, err
	}

	plat := cfg.Platform
	w := cfg.Workload
	ranks := plat.Cores()
	nAggs := plat.Nodes
	nodeBytes := w.NodeBytes(plat.CoresPerNode)
	rounds := int(math.Ceil(nodeBytes / collectiveBuffer))

	res := Result{Approach: Collective, Platform: plat, Workload: w}

	run := &collectiveRun{
		be:           be,
		plat:         plat,
		bytesPerCore: w.BytesPerCore,
		nodeBytes:    nodeBytes,
		rounds:       rounds,
		aggDone:      eng.NewBarrier(nAggs),
		phaseDone:    make([]des.Future, w.Iterations),
		aggs:         make([]collectiveAgg, nAggs),
	}
	run.loop = newPhaseLoop(eng, &res, ranks, w.Iterations, w.ComputeJitter, root.Named("compute"),
		func(int) float64 { return w.ComputeTime }, func(int) { be.BeginPhase() }, run.exchange)
	for i := range run.phaseDone {
		run.phaseDone[i] = *eng.NewFuture()
	}
	for n := range run.aggs {
		run.aggs[n].step = func() { run.aggregate(int32(n * plat.CoresPerNode)) }
	}
	run.kShuffled = eng.Handle(run.onShuffled)
	run.kSent = eng.Handle(func(i int32) { run.phaseDone[run.loop.ranks[i].it].ThenPost(run.loop.kWrote, i) })
	run.kAggregated = eng.Handle(run.onAggregated)
	run.loop.start()
	eng.Run()

	res.account(be)
	res.FilesCreated = w.Iterations
	res.DrainTime = res.TotalTime
	return res, nil
}

// collectiveBuffer is the per-aggregator bytes written per two-phase
// round (ROMIO's cb_buffer_size scale).
const collectiveBuffer = 16e6

// collectiveRun is the state the ranks of one collective run share.
type collectiveRun struct {
	loop         *phaseLoop
	be           storage.CostModel
	plat         topology.Platform
	bytesPerCore float64
	nodeBytes    float64
	rounds       int
	aggDone      *des.Barrier
	phaseDone    []des.Future    // per iteration, the collective write's end
	aggs         []collectiveAgg // per node, its aggregator's

	kShuffled, kSent, kAggregated des.Kind
}

// collectiveAgg is an aggregator's output state. The aggregator — the
// first rank of each node — collects the node's data over the NIC and
// writes it into the shared file in rounds, each file operation
// continued by step, bound once; every other rank sends its data to its
// aggregator and waits for the collective write to end.
type collectiveAgg struct {
	round    int
	creating bool // step continues the shared file's create
	step     func()
}

// exchange is rank i's part of the two-phase shuffle over the NIC: an
// aggregator collects the node's data, any other rank sends its own.
func (run *collectiveRun) exchange(i int32) {
	plat, eng := run.plat, run.loop.eng
	if int(i)%plat.CoresPerNode == 0 {
		// Shuffle phase: collect the node's data over the NIC.
		eng.Post(run.nodeBytes/plat.NICBandwidth+plat.NICLatency*float64(plat.CoresPerNode), run.kShuffled, i)
		return
	}
	// Send local data to the aggregator, then wait for the collective
	// write to finish (MPI_File_write_all returns only when the phase
	// completes).
	eng.Post(run.bytesPerCore/plat.NICBandwidth+plat.NICLatency, run.kSent, i)
}

func (run *collectiveRun) onShuffled(i int32) {
	r := &run.aggs[int(i)/run.plat.CoresPerNode]
	r.round, r.creating = 0, i == 0
	if r.creating {
		run.be.Create(r.step) // the shared file
		return
	}
	run.be.Open(r.step)
}

// aggregate continues aggregator i: it opens the shared file once
// created, writes its next round once the file is open or the last round
// is written, closes the file after the last round, and meets the other
// aggregators once it is closed.
func (run *collectiveRun) aggregate(i int32) {
	r := &run.aggs[int(i)/run.plat.CoresPerNode]
	switch {
	case r.creating:
		r.creating = false
		run.be.Open(r.step)
	case r.round == run.rounds:
		r.round++
		run.be.Close(r.step)
	case r.round > run.rounds:
		run.aggDone.ArrivePost(run.kAggregated, i)
	default:
		chunk := collectiveBuffer
		if rem := run.nodeBytes - float64(r.round)*collectiveBuffer; rem < chunk {
			chunk = rem
		}
		// Extent → OST mapping: round-robin striping of the shared file
		// across all OSTs. Aggregators pipeline their rounds independently
		// (ROMIO does not barrier between rounds); the phase ends when the
		// slowest aggregator finishes.
		ost := (int(i)/run.plat.CoresPerNode + r.round*run.plat.Nodes) % run.be.Targets()
		r.round++
		run.be.WriteChunk(ost, chunk, storage.SharedFile, r.step)
	}
}

// onAggregated runs once every aggregator has closed the shared file.
func (run *collectiveRun) onAggregated(i int32) {
	if i == 0 {
		run.phaseDone[run.loop.ranks[i].it].Complete()
	}
	run.loop.wrote(i)
}
