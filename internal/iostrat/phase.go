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
// the Result. A rank is an index into ranks and each step an event kind
// registered once, so a rank costs the events it books and nothing
// besides.
type phaseLoop struct {
	eng        *des.Engine
	res        *Result
	iters      int
	jitter     float64              // compute-time log-normal sigma
	computeAt  func(it int) float64 // nominal compute time of iteration it
	step       *des.Barrier
	phaseStart []float64
	begin      func(it int)     // rank 0, as phase it begins
	output     func(rank int32) // a rank's output work, which ends in wrote
	finish     func()           // rank 0, after the last phase (may be nil)
	ranks      []phaseRank

	kIterate, kComputed, kPhase, kWrote, kPhaseEnd des.Kind
}

// phaseRank is one rank's place in the frame.
type phaseRank struct {
	compRng rng.Stream
	it      int
	t0      float64 // this phase's write start
}

// newPhaseLoop builds the frame for n ranks over iters iterations, rank
// i drawing its compute noise from compute.Child(i), and sizes the
// Result's per-phase and per-rank timings.
func newPhaseLoop(eng *des.Engine, res *Result, n, iters int, jitter float64, compute *rng.Stream,
	computeAt func(int) float64, begin func(int), output func(int32)) *phaseLoop {

	res.IOTimes = make([]float64, iters)
	res.RankWriteTimes = make([]float64, 0, n*iters)
	l := &phaseLoop{
		eng:        eng,
		res:        res,
		iters:      iters,
		jitter:     jitter,
		computeAt:  computeAt,
		step:       eng.NewBarrier(n),
		phaseStart: make([]float64, iters),
		begin:      begin,
		output:     output,
		ranks:      make([]phaseRank, n),
	}
	for i := range l.ranks {
		l.ranks[i].compRng = *compute.Child(uint64(i))
	}
	l.kIterate = eng.Handle(l.iterate)
	l.kComputed = eng.Handle(func(i int32) { l.step.ArrivePost(l.kPhase, i) })
	l.kPhase = eng.Handle(l.onPhase)
	l.kWrote = eng.Handle(l.wrote)
	l.kPhaseEnd = eng.Handle(l.onPhaseEnd)
	return l
}

// start books every rank's first step at the current time, in rank
// order.
func (l *phaseLoop) start() {
	for i := range l.ranks {
		l.eng.Post(0, l.kIterate, int32(i))
	}
}

// iterate starts rank i's next compute phase, or ends the rank; the end
// of rank 0 is the end of the application.
func (l *phaseLoop) iterate(i int32) {
	r := &l.ranks[i]
	if r.it == l.iters {
		if i == 0 {
			l.res.TotalTime = l.eng.Now()
			if l.finish != nil {
				l.finish()
			}
		}
		return
	}
	l.eng.Post(l.computeAt(r.it)*r.compRng.UnitLogNormal(l.jitter), l.kComputed, i)
}

// onPhase runs once every rank has computed: the output phase begins.
func (l *phaseLoop) onPhase(i int32) {
	r := &l.ranks[i]
	if i == 0 {
		// First rank into the phase: fresh interference draws and the
		// phase-start timestamp.
		l.begin(r.it)
		l.phaseStart[r.it] = l.eng.Now()
	}
	r.t0 = l.eng.Now()
	l.output(i)
}

// wrote ends rank i's output work: it meets the other ranks.
func (l *phaseLoop) wrote(i int32) {
	l.res.RankWriteTimes = append(l.res.RankWriteTimes, l.eng.Now()-l.ranks[i].t0)
	l.step.ArrivePost(l.kPhaseEnd, i)
}

// onPhaseEnd runs once every rank has written: the phase ends.
func (l *phaseLoop) onPhaseEnd(i int32) {
	r := &l.ranks[i]
	if i == 0 {
		l.res.IOTimes[r.it] = l.eng.Now() - l.phaseStart[r.it]
	}
	r.it++
	l.iterate(i)
}
