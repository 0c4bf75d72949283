package iostrat

import (
	"math"

	"repro/internal/des"
	"repro/internal/rng"
)

// phaseLoop is the bulk-synchronous frame every simulated core of the
// three strategies runs in: per iteration, compute, meet every rank, do
// the rank's output work, and meet them again at the phase's end, so a
// phase costs the slowest rank. Rank 0 stamps the phase boundaries into
// the Result. Every rank starts computing at one instant (t = 0 or the
// phase end), so a compute phase is one event, not one per rank, that
// starts the output work in the order a barrier would have woken the
// ranks: the last arrival first, then the others by (end, booking). The
// phase end is one event too.
type phaseLoop struct {
	eng        *des.Engine
	res        *Result
	compute    func(i int32, it int) float64 // rank i's compute time in iteration it
	ended      *wakeList                     // the ranks done writing, a barrier running onPhaseEnd
	phaseStart []float64                     // per iteration, when its output phase began
	begin      func(it int)                  // rank 0, as phase it begins
	output     func(rank int32)              // a rank's output work, which ends in wrote
	finish     func()                        // rank 0, after the last phase (may be nil)
	ranks      []phaseRank
	computing  []computeEnd // this phase's compute ends, in booking order
	released   []computeEnd // the last phase's, sorted

	kRelease des.Kind
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
	l.ended = newWakeList(eng, n, l.onPhaseEnd)
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
	l.ended.arrive(i)
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

// wakeList runs run for a list of actors, in list order, in one event:
// a batch of steps that end at one instant (post), or, in the order of
// per-actor wakes, those of a barrier (arrive) or a future (wait, complete).
type wakeList struct {
	eng     *des.Engine
	kind    des.Kind
	run     func(int32)
	parties int
	done    bool // the future has completed (its owner resets it)
	actors  []int32
}

func newWakeList(eng *des.Engine, n int, run func(int32)) *wakeList {
	w := &wakeList{eng: eng, run: run, parties: n, actors: make([]int32, 0, n)}
	w.kind = eng.Handle(func(int32) {
		for _, a := range w.actors {
			w.run(a)
		}
		w.actors = w.actors[:0]
	})
	return w
}

// post runs actor a d seconds from now, with the batch.
func (w *wakeList) post(d float64, a int32) {
	if len(w.actors) == 0 {
		w.eng.Post(d, w.kind, 0)
	}
	w.actors = append(w.actors, a)
}

// arrive counts a at the barrier: the last of the parties to arrive
// runs inline, after it books the event that runs the others.
func (w *wakeList) arrive(a int32) {
	if len(w.actors)+1 < w.parties {
		w.actors = append(w.actors, a)
		return
	}
	w.complete()
	w.run(a)
}

// wait runs a once the future completes: at once if it has.
func (w *wakeList) wait(a int32) {
	if w.done {
		w.run(a)
		return
	}
	w.actors = append(w.actors, a)
}

// complete books the event that runs the waiting actors, if any; later
// waits run at once.
func (w *wakeList) complete() {
	if w.done = true; len(w.actors) > 0 {
		w.eng.Post(0, w.kind, 0)
	}
}
