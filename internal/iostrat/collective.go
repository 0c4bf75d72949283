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

	loop := newPhaseLoop(eng, &res, ranks, w.Iterations, w.ComputeJitter,
		func(int) float64 { return w.ComputeTime }, func(int) { be.BeginPhase() })
	run := &collectiveRun{
		be:           be,
		plat:         plat,
		bytesPerCore: w.BytesPerCore,
		nodeBytes:    nodeBytes,
		rounds:       rounds,
		aggDone:      eng.NewBarrier(nAggs),
		phaseDone:    make([]*des.Future, w.Iterations),
	}
	for i := range run.phaseDone {
		run.phaseDone[i] = eng.NewFuture()
	}
	compute := root.Named("compute")
	for r := 0; r < ranks; r++ {
		run.startRank(loop, r, compute.Child(uint64(r)))
	}
	eng.Run()

	acc := be.Accounting()
	res.BytesWritten = acc.BytesWritten
	res.IOWindow = acc.IOBusyTime
	res.BytesSaved = acc.BytesSaved
	res.CodecCPUTime = acc.EncodeTime + acc.DecodeTime
	res.DedupBytesSaved = acc.DedupBytesSaved
	res.HashCPUTime = acc.ChunkHashTime
	res.FilesCreated = w.Iterations
	res.DrainTime = res.TotalTime
	return res, nil
}

// collectiveBuffer is the per-aggregator bytes written per two-phase
// round (ROMIO's cb_buffer_size scale).
const collectiveBuffer = 16e6

// collectiveRun is the state the ranks of one collective run share
// besides their phaseLoop.
type collectiveRun struct {
	be           storage.CostModel
	plat         topology.Platform
	bytesPerCore float64
	nodeBytes    float64
	rounds       int
	aggDone      *des.Barrier
	phaseDone    []*des.Future // per iteration, the collective write's end
}

// collectiveRank is one collective-I/O rank. An aggregator — one per
// node — collects the node's data over the NIC and writes it into the
// shared file in rounds; every other rank sends its data to its
// aggregator and waits for the collective write to end.
type collectiveRank struct {
	phaseRank
	*collectiveRun
	aggIdx int
	isAgg  bool
	round  int

	shuffled, created, nextRound, closed, aggregated, sent func()
}

// startRank builds a rank's state machine and books its first step.
func (run *collectiveRun) startRank(loop *phaseLoop, rank int, compRng *rng.Stream) {
	r := &collectiveRank{
		collectiveRun: run,
		aggIdx:        rank / run.plat.CoresPerNode,
		isAgg:         rank%run.plat.CoresPerNode == 0,
	}
	r.init(loop, rank, compRng, r.exchange)
	r.shuffled = r.onShuffled
	r.created = func() { r.be.Open(r.nextRound) }
	r.nextRound = r.writeRound
	r.closed = func() { r.aggDone.ArriveThen(r.aggregated) }
	r.aggregated = r.onAggregated
	r.sent = func() { r.phaseDone[r.it].Then(r.wrote) }
	r.start()
}

// exchange is the rank's part of the two-phase shuffle over the NIC:
// an aggregator collects the node's data, any other rank sends its own.
func (r *collectiveRank) exchange(int) {
	plat := r.plat
	if r.isAgg {
		// Shuffle phase: collect the node's data over the NIC.
		r.eng.Wait(r.nodeBytes/plat.NICBandwidth+plat.NICLatency*float64(plat.CoresPerNode), r.shuffled)
		return
	}
	// Send local data to the aggregator, then wait for the collective
	// write to finish (MPI_File_write_all returns only when the phase
	// completes).
	r.eng.Wait(r.bytesPerCore/plat.NICBandwidth+plat.NICLatency, r.sent)
}

func (r *collectiveRank) onShuffled() {
	r.round = 0
	if r.aggIdx == 0 {
		r.be.Create(r.created) // the shared file
		return
	}
	r.be.Open(r.nextRound)
}

// writeRound writes the aggregator's next round, or closes the file
// after the last one.
func (r *collectiveRank) writeRound() {
	if r.round == r.rounds {
		r.be.Close(r.closed)
		return
	}
	chunk := collectiveBuffer
	if rem := r.nodeBytes - float64(r.round)*collectiveBuffer; rem < chunk {
		chunk = rem
	}
	// Extent → OST mapping: round-robin striping of the shared file
	// across all OSTs. Aggregators pipeline their rounds independently
	// (ROMIO does not barrier between rounds); the phase ends when the
	// slowest aggregator finishes.
	ost := (r.aggIdx + r.round*r.plat.Nodes) % r.be.Targets()
	r.round++
	r.be.WriteChunk(ost, chunk, storage.SharedFile, r.nextRound)
}

// onAggregated runs once every aggregator has closed the shared file.
func (r *collectiveRank) onAggregated() {
	if r.aggIdx == 0 {
		r.phaseDone[r.it].Complete()
	}
	r.wrote()
}
