package iostrat

import (
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
)

// runFPP models the file-per-process approach: every rank creates and
// writes its own file each output phase. There is no inter-rank
// synchronization inside the phase, but the application is bulk-
// synchronous, so the next compute phase starts only when every rank has
// finished writing — the phase cost is the max over ranks.
func runFPP(cfg Config) (Result, error) {
	eng := des.NewEngine()
	root := rng.New(cfg.Seed, 1)
	be, _, err := cfg.newCostModel(eng, root.Named("pfs"))
	if err != nil {
		return Result{}, err
	}

	plat := cfg.Platform
	w := cfg.Workload
	ranks := plat.Cores()

	res := Result{Approach: FilePerProcess, Platform: plat, Workload: w}
	res.IOTimes = make([]float64, w.Iterations)
	res.RankWriteTimes = make([]float64, 0, ranks*w.Iterations)

	stepBarrier := eng.NewBarrier(ranks)
	phaseStart := make([]float64, w.Iterations)

	for r := 0; r < ranks; r++ {
		rank := r
		compRng := root.Named("compute").Child(uint64(rank))
		placeRng := root.Named("place").Child(uint64(rank))
		eng.Spawn("rank", func(p *des.Proc) {
			for it := 0; it < w.Iterations; it++ {
				p.Wait(w.ComputeTime * compRng.UnitLogNormal(w.ComputeJitter))
				p.Arrive(stepBarrier)
				if rank == 0 {
					// First process into the phase: fresh interference
					// draws and the phase-start timestamp.
					be.BeginPhase()
					phaseStart[it] = p.Now()
				}
				t0 := p.Now()
				ost := be.PlaceFile(1, placeRng)[0]
				be.Create(p)
				be.Write(p, ost, w.BytesPerCore, storage.SmallFile)
				be.Close(p)
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
	res.FilesCreated = ranks * w.Iterations
	res.DrainTime = res.TotalTime
	return res, nil
}
