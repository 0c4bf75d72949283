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
		aggs:         make([]collectiveAgg, nAggs),
	}
	run.loop = newPhaseLoop(eng, &res, ranks, w.Iterations, w.ComputeJitter, root.Named("compute"),
		func(int) float64 { return w.ComputeTime },
		func(int) { be.BeginPhase(); run.written.done, run.created = false, false }, run.exchange)
	run.step, run.kStep = run.aggregate, eng.Handle(run.aggregate)
	run.shuffled = newWakeList(eng, nAggs, run.onShuffled)
	run.written = newWakeList(eng, ranks-nAggs, run.loop.wrote)
	run.sent = newWakeList(eng, ranks-nAggs, run.written.wait)
	run.aggDone = newWakeList(eng, nAggs, run.onAggregated)
	run.loop.start()
	eng.Run()

	res.account(be)
	res.FilesCreated = w.Iterations
	res.DrainTime = res.TotalTime
	return res, nil
}

// collectiveBuffer is an aggregator's bytes per round (ROMIO's cb_buffer_size scale).
const collectiveBuffer = 16e6

// collectiveRun is the state the ranks of one collective run share.
type collectiveRun struct {
	loop                    *phaseLoop
	be                      storage.CostModel
	plat                    topology.Platform
	bytesPerCore, nodeBytes float64
	rounds                  int
	aggDone                 *wakeList       // the aggregators done writing, a barrier
	written                 *wakeList       // this phase's collective write's end, a future
	aggs                    []collectiveAgg // per node, its aggregator's
	created                 bool            // this phase's shared file exists
	opening                 []int32         // aggregators waiting for it to, in arrival order

	shuffled, sent *wakeList   // the exchange's steps, which end at one instant per phase
	step           func(int32) // aggregate, bound once, continues an aggregator's file operations
	kStep          des.Kind    // and its kind, a transfer's
}

// collectiveAgg is an aggregator's output state: the first rank of each
// node collects the node's data over the NIC and writes it into the
// shared file in rounds.
type collectiveAgg struct {
	round    int
	creating bool // step continues the shared file's create
}

// exchange is rank i's part of the two-phase shuffle over the NIC: an
// aggregator collects the node's data, any other rank sends its own.
func (run *collectiveRun) exchange(i int32) {
	if plat := run.plat; int(i)%plat.CoresPerNode == 0 {
		run.shuffled.post(run.nodeBytes/plat.NICBandwidth+plat.NICLatency*float64(plat.CoresPerNode), i)
		return
	}
	// Send local data to the aggregator, then wait for the collective write
	// to finish (MPI_File_write_all returns only when the phase completes).
	run.sent.post(run.bytesPerCore/run.plat.NICBandwidth+run.plat.NICLatency, i)
}

func (run *collectiveRun) onShuffled(i int32) {
	r := &run.aggs[int(i)/run.plat.CoresPerNode]
	if r.round, r.creating = 0, i == 0; r.creating {
		run.be.Create(run.step, i) // the shared file
	} else if run.created {
		run.be.Open(run.step, i)
	} else {
		run.opening = append(run.opening, i) // opened once created
	}
}

// aggregate continues aggregator i: it (and those waiting) opens the file
// once created, writes a round once it is open or a round is written,
// closes it after the last round, and meets the others once it is closed.
func (run *collectiveRun) aggregate(i int32) {
	r := &run.aggs[int(i)/run.plat.CoresPerNode]
	switch {
	case r.creating:
		r.creating, run.created = false, true
		run.be.Open(run.step, i)
		for _, a := range run.opening {
			run.be.Open(run.step, a)
		}
		run.opening = run.opening[:0]
	case r.round == run.rounds:
		r.round++
		run.be.Close(run.step, i)
	case r.round > run.rounds:
		run.aggDone.arrive(i)
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
		run.be.WriteChunk(ost, chunk, storage.SharedFile).ThenPost(run.kStep, i)
	}
}

// onAggregated runs once every aggregator has closed the shared file.
func (run *collectiveRun) onAggregated(i int32) {
	if i == 0 {
		run.written.complete()
	}
	run.loop.wrote(i)
}
