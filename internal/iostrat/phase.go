package iostrat

import (
	"math"

	"repro/internal/des"
	"repro/internal/rng"
)

// phaseLoop is the bulk-synchronous frame every simulated core of the
// three strategies runs in: per iteration, compute, meet every rank, do
// the rank's output work, and meet them again at the step barrier, so a
// phase costs the slowest rank. Rank 0 stamps the phase boundaries into
// the Result. Every rank starts computing at one instant (t = 0 or the
// barrier's release), so a compute phase is one event, not one per rank,
// that starts the output work in the order a barrier would have woken
// the ranks: the last arrival first, then the others by (end, booking).
type phaseLoop struct {
	eng        *des.Engine
	res        *Result
	compute    func(i int32, it int) float64 // rank i's compute time in iteration it
	step       *des.Barrier
	phaseStart []float64        // per iteration, when its output phase began
	begin      func(it int)     // rank 0, as phase it begins
	output     func(rank int32) // a rank's output work, which ends in wrote
	finish     func()           // rank 0, after the last phase (may be nil)
	ranks      []phaseRank
	computing  []computeEnd // this phase's compute ends, in booking order
	released   []computeEnd // the last phase's, sorted

	kRelease, kWrote, kPhaseEnd des.Kind
}

// phaseRank is one rank's place in the frame.
type phaseRank struct {
	compRng rng.Stream
	it      int
}

// computeEnd is when a rank's compute ends, as math.Float64bits of the time.
type computeEnd struct {
	at   uint64
	rank int32
}

// newPhaseLoop builds the frame for n ranks over iters iterations, rank
// i computing computeAt(it) times a log-normal draw from compute.Child(i),
// and sizes the Result's per-phase and per-rank timings.
func newPhaseLoop(eng *des.Engine, res *Result, n, iters int, jitter float64, compute *rng.Stream,
	computeAt func(int) float64, begin func(int), output func(int32)) *phaseLoop {

	res.IOTimes = make([]float64, iters)
	res.RankWriteTimes = make([]float64, 0, n*iters)
	l := &phaseLoop{
		eng:        eng,
		res:        res,
		step:       eng.NewBarrier(n),
		phaseStart: make([]float64, iters),
		begin:      begin,
		output:     output,
		ranks:      make([]phaseRank, n),
		computing:  make([]computeEnd, 0, n),
		released:   make([]computeEnd, n),
	}
	for i := range l.ranks {
		l.ranks[i].compRng = *compute.Child(uint64(i))
	}
	l.compute = func(i int32, it int) float64 { return computeAt(it) * l.ranks[i].compRng.UnitLogNormal(jitter) }
	l.kRelease = eng.Handle(l.release)
	l.kWrote = eng.Handle(l.wrote)
	l.kPhaseEnd = eng.Handle(l.onPhaseEnd)
	return l
}

// start begins every rank's first compute phase now, in rank order.
func (l *phaseLoop) start() {
	for i := range l.ranks {
		l.iterate(int32(i))
	}
}

// iterate starts rank i's next compute phase, or ends the rank; the end
// of rank 0 is the end of the application. The last to start books the release.
func (l *phaseLoop) iterate(i int32) {
	r := &l.ranks[i]
	if r.it == len(l.phaseStart) {
		if i == 0 {
			l.res.TotalTime = l.eng.Now()
			if l.finish != nil {
				l.finish()
			}
		}
		return
	}
	l.computing = append(l.computing, computeEnd{math.Float64bits(l.eng.Now() + l.compute(i, r.it)), i})
	if n := len(l.computing); n == len(l.ranks) {
		l.released, l.computing = sortByEnd(l.computing, l.released[:n])
		l.eng.PostAt(math.Float64frombits(l.released[n-1].at), l.kRelease, 0)
	}
}

// release runs once every rank has computed: the output phase begins,
// for the last rank to compute first, then for the others in order.
func (l *phaseLoop) release(int32) {
	rel, it := l.released, l.ranks[0].it
	l.phaseStart[it] = l.eng.Now()
	for j := range rel {
		i := rel[(j+len(rel)-1)%len(rel)].rank
		if i == 0 {
			l.begin(it) // fresh interference draws, as rank 0 starts
		}
		l.output(i)
	}
}

// sortByEnd sorts ends stably by time, with buf (as long) for scratch,
// and returns the sorted slice and the other one, emptied: an LSD radix
// sort on the bits of the times, which order as the (non-negative) times do.
func sortByEnd(ends, buf []computeEnd) (sorted, other []computeEnd) {
	for shift := 0; shift < 64; shift += 8 {
		var at [257]int
		for _, x := range ends {
			at[int(x.at>>shift&0xff)+1]++
		}
		if at[int(ends[0].at>>shift&0xff)+1] == len(ends) {
			continue // a byte all the times share
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, x := range ends {
			d := x.at >> shift & 0xff
			buf[at[d]] = x
			at[d]++
		}
		ends, buf = buf, ends
	}
	return ends, buf[:0]
}

// wrote ends rank i's output work: it meets the other ranks.
func (l *phaseLoop) wrote(i int32) {
	l.res.RankWriteTimes = append(l.res.RankWriteTimes, l.eng.Now()-l.phaseStart[l.ranks[i].it])
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

// batch is an output step that ends at one instant for every rank that
// takes it in a phase: one event runs step for each in posting order, as
// per-rank events would have, ahead of any zero-delay event at that time.
type batch struct {
	eng    *des.Engine
	kind   des.Kind
	actors []int32
}

func newBatch(eng *des.Engine, n int, step func(int32)) *batch {
	b := &batch{eng: eng, actors: make([]int32, 0, n)}
	b.kind = eng.Handle(func(int32) {
		for _, a := range b.actors {
			step(a)
		}
		b.actors = b.actors[:0]
	})
	return b
}

// post runs step for actor d seconds from now, with the batch.
func (b *batch) post(d float64, actor int32) {
	if len(b.actors) == 0 {
		b.eng.Post(d, b.kind, 0)
	}
	b.actors = append(b.actors, actor)
}
