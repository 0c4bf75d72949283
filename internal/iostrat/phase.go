package iostrat

import (
	"repro/internal/des"
	"repro/internal/rng"
)

// phaseLoop is the bulk-synchronous frame every simulated core of the
// three strategies runs in: per iteration, compute, meet every rank at
// the step barrier, do the rank's output work, and meet them again. The
// next compute phase starts only when every rank has finished, so a
// phase costs the slowest rank. Rank 0 stamps the phase boundaries into
// the Result.
type phaseLoop struct {
	eng        *des.Engine
	res        *Result
	iters      int
	jitter     float64              // compute-time log-normal sigma
	computeAt  func(it int) float64 // nominal compute time of iteration it
	step       *des.Barrier
	phaseStart []float64
	begin      func(it int) // rank 0, as phase it begins
	finish     func()       // rank 0, after the last phase (may be nil)
}

// newPhaseLoop builds the frame for ranks ranks over iters iterations,
// sizing the Result's per-phase and per-rank timings.
func newPhaseLoop(eng *des.Engine, res *Result, ranks, iters int, jitter float64,
	computeAt func(int) float64, begin func(int)) *phaseLoop {

	res.IOTimes = make([]float64, iters)
	res.RankWriteTimes = make([]float64, 0, ranks*iters)
	return &phaseLoop{
		eng:        eng,
		res:        res,
		iters:      iters,
		jitter:     jitter,
		computeAt:  computeAt,
		step:       eng.NewBarrier(ranks),
		phaseStart: make([]float64, iters),
		begin:      begin,
	}
}

// phaseRank is one rank as a run-to-completion state machine, not a
// process: each step runs inside the event that ends the step before
// it and books the next, and the steps are bound once, so a rank costs
// the events it books and nothing per step besides. A strategy embeds
// it and supplies output, its output work, which ends by calling wrote.
type phaseRank struct {
	*phaseLoop
	rank    int
	compRng *rng.Stream
	output  func(it int)
	it      int
	t0      float64 // this phase's write start

	computed, phase, wrote, phaseEnd func()
}

// init binds the rank's frame steps around output.
func (r *phaseRank) init(l *phaseLoop, rank int, compRng *rng.Stream, output func(it int)) {
	*r = phaseRank{phaseLoop: l, rank: rank, compRng: compRng, output: output}
	r.computed = func() { r.step.ArriveThen(r.phase) }
	r.phase = r.onPhase
	r.wrote = r.onWrote
	r.phaseEnd = r.onPhaseEnd
}

// start books the rank's first step at the current time.
func (r *phaseRank) start() { r.eng.Wait(0, r.iterate) }

// iterate starts iteration r.it's compute phase, or ends the rank; the
// end of rank 0 is the end of the application.
func (r *phaseRank) iterate() {
	if r.it == r.iters {
		if r.rank == 0 {
			r.res.TotalTime = r.eng.Now()
			if r.finish != nil {
				r.finish()
			}
		}
		return
	}
	r.eng.Wait(r.computeAt(r.it)*r.compRng.UnitLogNormal(r.jitter), r.computed)
}

// onPhase runs once every rank has computed: the output phase begins.
func (r *phaseRank) onPhase() {
	if r.rank == 0 {
		// First rank into the phase: fresh interference draws and the
		// phase-start timestamp.
		r.begin(r.it)
		r.phaseStart[r.it] = r.eng.Now()
	}
	r.t0 = r.eng.Now()
	r.output(r.it)
}

func (r *phaseRank) onWrote() {
	r.res.RankWriteTimes = append(r.res.RankWriteTimes, r.eng.Now()-r.t0)
	r.step.ArriveThen(r.phaseEnd)
}

// onPhaseEnd runs once every rank has written: the phase ends.
func (r *phaseRank) onPhaseEnd() {
	if r.rank == 0 {
		r.res.IOTimes[r.it] = r.eng.Now() - r.phaseStart[r.it]
	}
	r.it++
	r.iterate()
}
