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
	run := &fppRun{be: be, bytes: w.BytesPerCore, ranks: make([]fppRank, ranks)}
	run.loop = newPhaseLoop(eng, &res, ranks, w.Iterations, w.ComputeJitter, root.Named("compute"),
		func(int) float64 { return w.ComputeTime }, func(int) { be.BeginPhase() }, run.writeFile)
	place := root.Named("place")
	for i := range run.ranks {
		run.ranks[i].placeRng = *place.Child(uint64(i))
		run.ranks[i].step = func() { run.next(int32(i)) }
	}
	run.loop.start()
	eng.Run()

	res.account(be)
	res.FilesCreated = ranks * w.Iterations
	res.DrainTime = res.TotalTime
	return res, nil
}

// fppRun is the state the ranks of one file-per-process run share.
type fppRun struct {
	loop  *phaseLoop
	be    storage.CostModel
	bytes float64
	ranks []fppRank
}

// fppRank is one file-per-process rank's output state: its output work
// creates, writes and closes the rank's own file, and step, bound once,
// continues each of those operations.
type fppRank struct {
	placeRng rng.Stream
	ost      int // this phase's file placement
	stage    int // operations done on this phase's file
	step     func()
}

func (run *fppRun) writeFile(i int32) {
	r := &run.ranks[i]
	r.ost, r.stage = run.be.PlaceFile(1, &r.placeRng)[0], 0
	run.be.Create(r.step)
}

// next continues rank i's file: written once created, closed once
// written, and the rank's output done once closed.
func (run *fppRun) next(i int32) {
	r := &run.ranks[i]
	switch r.stage++; r.stage {
	case 1:
		run.be.Write(r.ost, run.bytes, storage.SmallFile, r.step)
	case 2:
		run.be.Close(r.step)
	default:
		run.loop.wrote(i)
	}
}
