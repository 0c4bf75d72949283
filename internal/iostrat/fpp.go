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

	loop := newPhaseLoop(eng, &res, ranks, w.Iterations, w.ComputeJitter,
		func(int) float64 { return w.ComputeTime }, func(int) { be.BeginPhase() })
	compute, place := root.Named("compute"), root.Named("place")
	for r := 0; r < ranks; r++ {
		fr := &fppRank{be: be, bytes: w.BytesPerCore, placeRng: place.Child(uint64(r))}
		fr.init(loop, r, compute.Child(uint64(r)), fr.writeFile)
		fr.created = func() { fr.be.Write(fr.ost, fr.bytes, storage.SmallFile, fr.written) }
		fr.written = func() { fr.be.Close(fr.wrote) }
		fr.start()
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

// fppRank is one file-per-process rank: its output work creates,
// writes and closes the rank's own file.
type fppRank struct {
	phaseRank
	be       storage.CostModel
	bytes    float64
	placeRng *rng.Stream
	ost      int // this phase's file placement

	created, written func()
}

func (r *fppRank) writeFile(int) {
	r.ost = r.be.PlaceFile(1, r.placeRng)[0]
	r.be.Create(r.created)
}
