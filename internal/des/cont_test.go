package des

import (
	"reflect"
	"testing"
)

// TestMixedWaitersWakeFIFO parks Proc adapters and plain continuations
// alternately on one Future, one Barrier and one Resource and checks
// that they wake in arrival order, whichever way each one was written.
func TestMixedWaitersWakeFIFO(t *testing.T) {
	const n = 4
	want := []int{0, 1, 2, 3}
	// park registers waiter i at time i+1: even ones are processes
	// calling block, odd ones continuations registered through then.
	park := func(e *Engine, woke *[]int, block func(p *Proc), then func(k func())) {
		for i := 0; i < n; i++ {
			i := i
			at := float64(i + 1)
			if i%2 == 0 {
				e.SpawnAt(at, "w", func(p *Proc) {
					block(p)
					*woke = append(*woke, i)
				})
				continue
			}
			e.At(at, func() { then(func() { *woke = append(*woke, i) }) })
		}
	}

	t.Run("future", func(t *testing.T) {
		e := NewEngine()
		f := e.NewFuture()
		var woke []int
		park(e, &woke, func(p *Proc) { p.Do(f.Then) }, f.Then)
		e.At(10, f.Complete)
		e.Run()
		if !reflect.DeepEqual(woke, want) {
			t.Fatalf("woke %v, want %v", woke, want)
		}
	})

	t.Run("barrier", func(t *testing.T) {
		e := NewEngine()
		b := e.NewBarrier(n + 1)
		var woke []int
		park(e, &woke, func(p *Proc) { p.Do(b.ArriveThen) }, b.ArriveThen)
		e.At(10, func() { b.ArriveThen(func() { woke = append(woke, n) }) })
		e.Run()
		// The last arrival runs inline, ahead of the wakes it books.
		if w := append([]int{n}, want...); !reflect.DeepEqual(woke, w) {
			t.Fatalf("woke %v, want %v", woke, w)
		}
	})

	t.Run("resource", func(t *testing.T) {
		e := NewEngine()
		r := e.NewResource(1)
		r.AcquireThen(1, func() {}) // held until 10
		var woke []int
		var at []float64
		hold := func(i int) { // each grantee holds the unit for 1s
			woke = append(woke, i)
			at = append(at, e.Now())
			e.Wait(1, func() { r.Release(1) })
		}
		for i := 0; i < n; i++ {
			i := i
			start := float64(i + 1)
			if i%2 == 0 {
				e.SpawnAt(start, "w", func(p *Proc) {
					p.Do(func(k func()) { r.AcquireThen(1, k) })
					hold(i)
				})
				continue
			}
			e.At(start, func() { r.AcquireThen(1, func() { hold(i) }) })
		}
		e.At(10, func() { r.Release(1) })
		e.Run()
		if !reflect.DeepEqual(woke, want) || !reflect.DeepEqual(at, []float64{10, 11, 12, 13}) {
			t.Fatalf("granted %v at %v, want %v at 10..13", woke, at, want)
		}
	})
}

// TestThenRunsInline: a continuation whose condition already holds —
// the future done, the arrival the last one, the resource free — runs
// before the registering call returns and books no event; one whose
// condition does not hold waits.
func TestThenRunsInline(t *testing.T) {
	e := NewEngine()
	done := e.NewFuture()
	done.Complete()
	pending := e.NewFuture()
	b := e.NewBarrier(1)
	r := e.NewResource(1)
	e.At(1, func() {
		before := e.EventsDispatched()
		steps := map[string]func(k func()){
			"done future":  done.Then,
			"last arrival": b.ArriveThen,
			"free resource": func(k func()) {
				r.AcquireThen(1, k)
			},
		}
		for name, then := range steps {
			ran := false
			then(func() { ran = true })
			if !ran {
				t.Errorf("%s: continuation did not run inline", name)
			}
		}
		ran := false
		pending.Then(func() { ran = true })
		r.AcquireThen(1, func() { ran = true }) // the unit is held
		if ran {
			t.Error("a continuation ran before its condition held")
		}
		if got := e.EventsDispatched(); got != before {
			t.Errorf("inline continuations dispatched %d events", got-before)
		}
		pending.Complete()
		r.Release(1)
	})
	e.Run()
}

// TestProcFiresContinuationEvents: actors written as Proc bodies, which
// block in Wait and Do, fire exactly the events of the same actors
// written as continuations — the same count, each step inside the same
// event and at the same time — through a synchronous operation, a
// Resource queue, a Future and a Barrier.
func TestProcFiresContinuationEvents(t *testing.T) {
	const n = 3
	type stamp struct {
		actor, step int
		at          float64
		event       uint64 // events fired before the step ran
	}
	run := func(asProcs bool) ([]stamp, uint64) {
		e := NewEngine()
		r, f, b := e.NewResource(1), e.NewFuture(), e.NewBarrier(n)
		e.At(2.5, f.Complete)
		var trace []stamp
		mark := func(a, step int) { trace = append(trace, stamp{a, step, e.Now(), e.EventsDispatched()}) }
		sync := func(k func()) { k() }
		for a := 0; a < n; a++ {
			if asProcs {
				e.Spawn("a", func(p *Proc) {
					mark(a, 0)
					p.Wait(float64(a) / 2)
					p.Do(sync)
					mark(a, 1)
					p.Do(func(k func()) { r.AcquireThen(1, k) })
					mark(a, 2)
					p.Wait(1)
					r.Release(1)
					p.Do(f.Then)
					mark(a, 3)
					p.Do(b.ArriveThen)
					mark(a, 4)
				})
				continue
			}
			e.Wait(0, func() {
				mark(a, 0)
				e.Wait(float64(a)/2, func() {
					sync(func() {
						mark(a, 1)
						r.AcquireThen(1, func() {
							mark(a, 2)
							e.Wait(1, func() {
								r.Release(1)
								f.Then(func() {
									mark(a, 3)
									b.ArriveThen(func() { mark(a, 4) })
								})
							})
						})
					})
				})
			})
		}
		e.Run()
		return trace, e.EventsDispatched()
	}
	procTrace, procEvents := run(true)
	contTrace, contEvents := run(false)
	if procEvents != contEvents || !reflect.DeepEqual(procTrace, contTrace) {
		t.Fatalf("processes fired %d events:\n%v\ncontinuations %d:\n%v",
			procEvents, procTrace, contEvents, contTrace)
	}
	if len(procTrace) != 5*n {
		t.Fatalf("%d steps ran, want %d", len(procTrace), 5*n)
	}
}

// TestDoBodyReturnsInResumingEvent: a process whose body returns right
// after an asynchronous Do ends inside the event that resumed it, and
// Run ends with nothing counted as parked.
func TestDoBodyReturnsInResumingEvent(t *testing.T) {
	e := NewEngine()
	var after []float64
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Do(func(k func()) { e.Wait(1, k) })
			p.Do(func(k func()) { e.Wait(1, k) })
			after = append(after, p.Now())
		})
	}
	if end := e.Run(); end != 2 {
		t.Fatalf("Run ended at %v, want 2", end)
	}
	if e.nconts != 0 {
		t.Fatalf("%d continuations still counted after Run", e.nconts)
	}
	if len(after) != 3 {
		t.Fatalf("%d bodies finished, want 3", len(after))
	}
}
