package des

import (
	"reflect"
	"testing"
)

// TestMixedWaitersWakeFIFO parks processes and continuations
// alternately on one Future, one Barrier and one Resource and checks
// that they wake in arrival order, whichever style each one is.
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
		park(e, &woke, func(p *Proc) { p.Await(f) }, f.Then)
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
		park(e, &woke, func(p *Proc) { p.Arrive(b) }, b.ArriveThen)
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
					p.Acquire(r, 1)
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

// TestDoAddsNoEvent: a blocking call through Proc.Do fires exactly the
// events of the continuation form — none of its own — whether the
// continuation runs before start returns or from a later event.
func TestDoAddsNoEvent(t *testing.T) {
	events := func(body func(e *Engine, p *Proc)) (uint64, float64) {
		e := NewEngine()
		var end float64
		e.Spawn("p", func(p *Proc) {
			body(e, p)
			end = p.Now()
		})
		e.Run()
		return e.EventsDispatched(), end
	}
	cases := []struct {
		name      string
		do, plain func(e *Engine, p *Proc)
	}{
		{"synchronous",
			func(e *Engine, p *Proc) { p.Do(func(k func()) { k() }) },
			func(e *Engine, p *Proc) {}},
		{"wait",
			func(e *Engine, p *Proc) { p.Do(func(k func()) { e.Wait(2, k) }) },
			func(e *Engine, p *Proc) { p.Wait(2) }},
		{"future",
			func(e *Engine, p *Proc) {
				f := e.NewFuture()
				e.At(5, f.Complete)
				p.Do(f.Then)
			},
			func(e *Engine, p *Proc) {
				f := e.NewFuture()
				e.At(5, f.Complete)
				p.Await(f)
			}},
	}
	for _, c := range cases {
		gotN, gotEnd := events(c.do)
		wantN, wantEnd := events(c.plain)
		if gotN != wantN || gotEnd != wantEnd {
			t.Errorf("%s: Do fired %d events ending at %v, the plain form %d ending at %v",
				c.name, gotN, gotEnd, wantN, wantEnd)
		}
	}
}

// TestDoBodyReturnsInResumingEvent: a process whose body returns right
// after an asynchronous Do ends inside the event that resumed it; the
// engine must still count it out, or Run would report a deadlock.
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
	if e.nprocs != 0 || e.nconts != 0 {
		t.Fatalf("%d processes and %d continuations still counted after Run", e.nprocs, e.nconts)
	}
	if len(after) != 3 {
		t.Fatalf("%d bodies finished, want 3", len(after))
	}
}
