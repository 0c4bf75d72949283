package iostrat

import (
	"math"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
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
	// collectiveBuffer is the per-aggregator bytes written per two-phase
	// round (ROMIO's cb_buffer_size scale).
	const collectiveBuffer = 16e6

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
	res.IOTimes = make([]float64, w.Iterations)
	res.RankWriteTimes = make([]float64, 0, ranks*w.Iterations)

	stepBarrier := eng.NewBarrier(ranks)
	aggDone := eng.NewBarrier(nAggs)
	phaseDone := make([]*des.Future, w.Iterations)
	for i := range phaseDone {
		phaseDone[i] = eng.NewFuture()
	}
	phaseStart := make([]float64, w.Iterations)

	for r := 0; r < ranks; r++ {
		rank := r
		isAgg := rank%plat.CoresPerNode == 0
		aggIdx := rank / plat.CoresPerNode
		compRng := root.Named("compute").Child(uint64(rank))
		eng.Spawn("rank", func(p *des.Proc) {
			for it := 0; it < w.Iterations; it++ {
				p.Wait(w.ComputeTime * compRng.UnitLogNormal(w.ComputeJitter))
				p.Arrive(stepBarrier)
				if rank == 0 {
					be.BeginPhase()
					phaseStart[it] = p.Now()
				}
				t0 := p.Now()
				if isAgg {
					// Shuffle phase: collect the node's data over the NIC.
					p.Wait(nodeBytes/plat.NICBandwidth +
						plat.NICLatency*float64(plat.CoresPerNode))
					if aggIdx == 0 {
						be.Create(p) // the shared file
					}
					be.Open(p)
					for round := 0; round < rounds; round++ {
						chunk := collectiveBuffer
						if rem := nodeBytes - float64(round)*collectiveBuffer; rem < chunk {
							chunk = rem
						}
						// Extent → OST mapping: round-robin striping of the
						// shared file across all OSTs. Aggregators pipeline
						// their rounds independently (ROMIO does not
						// barrier between rounds); the phase ends when the
						// slowest aggregator finishes.
						ost := (aggIdx + round*nAggs) % be.Targets()
						be.WriteChunk(p, ost, chunk, storage.SharedFile)
					}
					be.Close(p)
					p.Arrive(aggDone)
					if aggIdx == 0 {
						phaseDone[it].Complete()
					}
				} else {
					// Send local data to the aggregator, then wait for the
					// collective write to finish (MPI_File_write_all
					// returns only when the phase completes).
					p.Wait(w.BytesPerCore/plat.NICBandwidth + plat.NICLatency)
					p.Await(phaseDone[it])
				}
				res.RankWriteTimes = append(res.RankWriteTimes, p.Now()-t0)
				p.Arrive(stepBarrier)
				if rank == 0 {
					res.IOTimes[it] = p.Now() - phaseStart[it]
				}
			}
			if rank == 0 {
				res.TotalTime = p.Now()
			}
		})
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
