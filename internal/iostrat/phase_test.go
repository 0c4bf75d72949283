package iostrat

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// refPhaseLoop is the per-rank frame phaseLoop replaced, kept as the
// reference FuzzPhaseRelease holds it to: every rank books its compute
// end as an event of its own and arrives at a step barrier of its own,
// which starts the last arrival's output work inline and wakes the
// others, one event each, in arrival order; the output phase ends at
// the same barrier, which wakes each rank in an event of its own too.
// It borrows a phaseLoop's state (ranks, compute draws, hooks) and none
// of its kinds or gates.
type refPhaseLoop struct {
	*phaseLoop
	step     stepBarrier
	t0       []float64   // per rank, this phase's write start
	phaseEnd func(int32) // kPhaseEnd's handler

	kIterate, kComputed, kPhase, kPhaseEnd des.Kind
}

// stepBarrier is the reference frame's reusable barrier over n ranks:
// every arrival but the last parks its step, a kind for a rank; the
// last wakes the parked steps in arrival order, each in an event of its
// own at the current time, then runs its own step inline.
type stepBarrier struct {
	eng    *des.Engine
	n      int
	parked []parkedStep
}

type parkedStep struct {
	k des.Kind
	i int32
}

func (b *stepBarrier) arrive(k des.Kind, step func(int32), i int32) {
	if len(b.parked)+1 < b.n {
		b.parked = append(b.parked, parkedStep{k, i})
		return
	}
	for _, p := range b.parked {
		b.eng.Post(0, p.k, p.i)
	}
	b.parked = b.parked[:0]
	step(i)
}

func newRefPhaseLoop(l *phaseLoop) *refPhaseLoop {
	r := &refPhaseLoop{phaseLoop: l, step: stepBarrier{eng: l.eng, n: len(l.ranks)}, t0: make([]float64, len(l.ranks))}
	r.kIterate = l.eng.Handle(r.iterate)
	r.kComputed = l.eng.Handle(func(i int32) { r.step.arrive(r.kPhase, r.onPhase, i) })
	r.kPhase = l.eng.Handle(r.onPhase)
	r.phaseEnd = r.onPhaseEnd
	r.kPhaseEnd = l.eng.Handle(r.phaseEnd)
	return r
}

func (r *refPhaseLoop) start() {
	for i := range r.ranks {
		r.eng.Post(0, r.kIterate, int32(i))
	}
}

func (r *refPhaseLoop) iterate(i int32) {
	rk := &r.ranks[i]
	if rk.it == len(r.phaseStart) {
		if i == 0 {
			r.res.TotalTime = r.eng.Now()
		}
		return
	}
	r.eng.Post(r.compute(i, rk.it), r.kComputed, i)
}

func (r *refPhaseLoop) onPhase(i int32) {
	rk := &r.ranks[i]
	if i == 0 {
		r.begin(rk.it)
		r.phaseStart[rk.it] = r.eng.Now()
	}
	r.t0[i] = r.eng.Now()
	r.output(i)
}

func (r *refPhaseLoop) wrote(i int32) {
	r.res.RankWriteTimes = append(r.res.RankWriteTimes, r.eng.Now()-r.t0[i])
	r.step.arrive(r.kPhaseEnd, r.phaseEnd, i)
}

func (r *refPhaseLoop) onPhaseEnd(i int32) {
	rk := &r.ranks[i]
	if i == 0 {
		r.res.IOTimes[rk.it] = r.eng.Now() - r.phaseStart[rk.it]
	}
	rk.it++
	r.iterate(i)
}

// phaseCase is one frame FuzzPhaseRelease drives: n ranks over iters
// iterations, compute times from the production draw (jitter >= 0) or,
// with jitter < 0, from a table of a few values so that ends tie, and
// each rank's output work from a few durations, inline included, or, when
// batched, one per-iteration duration through a batch. With waits, most
// ranks end their output work by waiting for rank 0's, as the
// collective's senders wait for the write that aggregator 0 completes.
type phaseCase struct {
	n, iters       int
	jitter         float64
	batched, waits bool
	choice         []byte // per (iteration, rank): the compute and write value
}

// phaseStep is one observation of a frame: kind is "begin" (rank 0's
// interference draws), "phase" (a rank's output work starts) or "end"
// (onPhaseEnd runs for a rank).
type phaseStep struct {
	kind string
	rank int32
	at   float64
}

// decodePhaseCase maps fuzz bytes onto a phaseCase.
func decodePhaseCase(data []byte) phaseCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := phaseCase{n: 1 + int(at(0))%40, iters: 1 + int(at(1))%3, batched: at(2)&4 != 0, waits: at(2)&8 != 0}
	c.jitter = [...]float64{0, 0.01, -1, -1}[at(2)%4]
	if len(data) > 3 {
		c.choice = data[3:]
	}
	return c
}

// value is the choice byte of rank i in iteration it.
func (c phaseCase) value(i int32, it int) byte {
	if len(c.choice) == 0 {
		return 0
	}
	return c.choice[(it*c.n+int(i))%len(c.choice)]
}

// run drives the case through the frame under test (ref false) or the
// reference and returns what it observed and the Result.
func (c phaseCase) run(ref bool) ([]phaseStep, Result) {
	eng := des.NewEngine()
	var res Result
	var steps []phaseStep
	var wrote, waited func(int32)
	var l *phaseLoop
	// A rank's write ends in wrote, or under waits in waited: rank 0
	// completes the phase's write and ends, the others with a choice bit
	// clear wait for that, through a des.Future in the reference and a
	// signal in the frame under test.
	var fut *des.Future
	var sig *wakeList
	kWrote := eng.Handle(func(i int32) { wrote(i) })
	waited = func(i int32) {
		switch {
		case i == 0 && ref:
			fut.Complete()
		case i == 0:
			sig.complete()
		case c.value(i, l.ranks[i].it)&0x40 != 0:
		case ref:
			fut.ThenPost(kWrote, i)
			return
		default:
			sig.wait(i)
			return
		}
		wrote(i)
	}
	end := func(i int32) {
		if c.waits {
			waited(i)
		} else {
			wrote(i)
		}
	}
	writes := newWakeList(eng, c.n, end)
	kWrite := eng.Handle(end)
	output := func(i int32) {
		steps = append(steps, phaseStep{"phase", i, eng.Now()})
		it := l.ranks[i].it
		switch w := [...]float64{-1, 0, 0.5, 0.125}[c.value(i, it)>>2%4]; {
		case c.batched && !ref:
			writes.post(0.25*float64(it+1), i)
		case c.batched:
			eng.Post(0.25*float64(it+1), kWrite, i)
		case w < 0 && !c.waits: // a wait starts in an event after begin
			wrote(i)
		default:
			eng.Post(max(w, 0), kWrite, i)
		}
	}
	begin := func(int) {
		steps = append(steps, phaseStep{"begin", 0, eng.Now()})
		fut = eng.NewFuture()
		if sig != nil {
			sig.done = false
		}
	}
	l = newPhaseLoop(eng, &res, c.n, c.iters, c.jitter, rng.New(7, 7).Named("compute"),
		func(it int) float64 { return float64(1 + it) }, begin, output)
	if c.jitter < 0 {
		l.compute = func(i int32, it int) float64 { return [...]float64{1, 1.5, 2, 0.25}[c.value(i, it)%4] }
	}
	observe := func(onPhaseEnd func(int32)) func(int32) {
		return func(i int32) {
			steps = append(steps, phaseStep{"end", i, eng.Now()})
			onPhaseEnd(i)
		}
	}
	if ref {
		r := newRefPhaseLoop(l)
		wrote, r.phaseEnd = r.wrote, observe(r.onPhaseEnd)
		r.kPhaseEnd = eng.Handle(r.phaseEnd)
		r.start()
	} else {
		wrote, l.ended.run = l.wrote, observe(l.onPhaseEnd)
		sig = newWakeList(eng, c.n, l.wrote)
		l.start()
	}
	eng.Run()
	return steps, res
}

// FuzzPhaseRelease holds the one-event-per-phase frame (its release and
// its end, a batched output step and a signal's waits) to the per-rank
// frame it replaced: the same output starts and phase ends, rank by
// rank, at the same float times, and the same Result timings.
func FuzzPhaseRelease(f *testing.F) {
	f.Add([]byte{8, 1, 0})                                  // ComputeJitter 0: every end ties, booking order decides
	f.Add([]byte{12, 2, 1, 5, 9, 2, 14, 7})                 // the production draw with jitter
	f.Add([]byte{17, 2, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 250}) // compute ties and inline writes
	f.Add([]byte{9, 1, 6, 3, 1, 0, 2})                      // a batched output step
	f.Add([]byte{0, 2, 3, 1})                               // one rank
	f.Add([]byte{20, 2, 10, 9, 4, 0x49, 0, 13, 0x47, 2})    // waits on rank 0's write, ties in the compute table
	f.Add([]byte{11, 3, 13, 1, 0x45, 3})                    // waits after a batched write
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePhaseCase(data)
		got, gotRes := c.run(false)
		want, wantRes := c.run(true)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("%+v: step %d is %v, the per-rank frame's %v", c, i, got[i], want[i])
				}
			}
			t.Fatalf("%+v: %d steps, the per-rank frame %d", c, len(got), len(want))
		}
		if gotRes.TotalTime != wantRes.TotalTime || !slices.Equal(gotRes.IOTimes, wantRes.IOTimes) ||
			!slices.Equal(gotRes.RankWriteTimes, wantRes.RankWriteTimes) {
			t.Fatalf("%+v: timings %v %v %v, the per-rank frame's %v %v %v", c, gotRes.TotalTime, gotRes.IOTimes,
				gotRes.RankWriteTimes, wantRes.TotalTime, wantRes.IOTimes, wantRes.RankWriteTimes)
		}
		if len(got) != c.n*c.iters*2+c.iters {
			t.Fatalf("%+v: %d steps, want %d", c, len(got), c.n*c.iters*2+c.iters)
		}
	})
}
