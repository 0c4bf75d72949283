package des

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var at []float64
	e.Spawn("p", func(p *Proc) {
		p.Wait(1.5)
		at = append(at, p.Now())
		p.Wait(2.5)
		at = append(at, p.Now())
	})
	end := e.Run()
	if end != 4 {
		t.Fatalf("final clock = %v, want 4", end)
	}
	if len(at) != 2 || at[0] != 1.5 || at[1] != 4 {
		t.Fatalf("observed times %v", at)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			e.Spawn(name, func(p *Proc) {
				p.Wait(1)
				order = append(order, p.Name())
				p.Wait(1)
				order = append(order, p.Name())
			})
		}
		e.Run()
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("nondeterministic length")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run differs at %d: %v vs %v", j, got, first)
				}
			}
		}
	}
	// Equal-time events must fire in spawn (FIFO) order.
	want := []string{"a", "b", "c", "d", "e", "a", "b", "c", "d", "e"}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started float64 = -1
	e.SpawnAt(10, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 10 {
		t.Fatalf("SpawnAt started at %v", started)
	}
}

func TestCallbacksAndTimers(t *testing.T) {
	e := NewEngine()
	fired := []float64{}
	e.At(3, func() { fired = append(fired, e.Now()) })
	tm := e.At(5, func() { t.Fatal("canceled timer fired") })
	e.At(1, func() {
		fired = append(fired, e.Now())
		tm.Cancel()
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at float64
	e.At(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.Run()
	if at != 5 {
		t.Fatalf("After fired at %v, want 5", at)
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine()
	f := e.NewFuture()
	var woke []float64
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Do(f.Then)
			woke = append(woke, p.Now())
		})
	}
	e.At(7, f.Complete)
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters", len(woke))
	}
	for _, w := range woke {
		if w != 7 {
			t.Fatalf("waiter woke at %v", w)
		}
	}
	// Await on a done future returns immediately.
	e2 := NewEngine()
	f2 := e2.NewFuture()
	f2.Complete()
	var ok bool
	e2.Spawn("w", func(p *Proc) { p.Do(f2.Then); ok = p.Now() == 0 })
	e2.Run()
	if !ok {
		t.Fatal("Await on completed future did not return immediately")
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	f := e.NewFuture()
	f.Complete()
	defer func() {
		if recover() == nil {
			t.Fatal("double Complete did not panic")
		}
	}()
	f.Complete()
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var order []string
	hold := func(name string, start, dur float64) {
		e.SpawnAt(start, name, func(p *Proc) {
			p.Do(func(k func()) { r.AcquireThen(1, k) })
			order = append(order, name+"+")
			p.Wait(dur)
			r.Release(1)
			order = append(order, name+"-")
		})
	}
	hold("a", 0, 5)
	hold("b", 1, 1)
	hold("c", 2, 1)
	e.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacityNeverExceeded(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(3)
	inUse, maxInUse := 0, 0
	for i := 0; i < 20; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Do(func(k func()) { r.AcquireThen(1, k) })
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			p.Wait(1)
			inUse--
			r.Release(1)
		})
	}
	e.Run()
	if maxInUse != 3 {
		t.Fatalf("max concurrent holders = %d, want 3", maxInUse)
	}
}

func TestResourceMultiUnit(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(2)
	var got []float64
	// First request takes both units for 5s; the 2-unit request queued at
	// t=1 must not be overtaken by the 1-unit request queued at t=2 (FIFO).
	e.SpawnAt(0, "big", func(p *Proc) {
		p.Do(func(k func()) { r.AcquireThen(2, k) })
		p.Wait(5)
		r.Release(2)
	})
	e.SpawnAt(1, "two", func(p *Proc) {
		p.Do(func(k func()) { r.AcquireThen(2, k) })
		got = append(got, p.Now())
		r.Release(2)
	})
	e.SpawnAt(2, "one", func(p *Proc) {
		p.Do(func(k func()) { r.AcquireThen(1, k) })
		got = append(got, p.Now())
		r.Release(1)
	})
	e.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 5 {
		t.Fatalf("grant times = %v, want [5 5]", got)
	}
}

func TestBarrier(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier(3)
	var released []float64
	starts := []float64{1, 4, 9}
	for _, s := range starts {
		e.SpawnAt(s, "p", func(p *Proc) {
			p.Do(b.ArriveThen)
			released = append(released, p.Now())
		})
	}
	e.Run()
	if len(released) != 3 {
		t.Fatalf("released %d", len(released))
	}
	for _, r := range released {
		if r != 9 {
			t.Fatalf("released at %v, want 9 (last arrival)", r)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier(2)
	count := 0
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Wait(1)
				p.Do(b.ArriveThen)
				count++
			}
		})
	}
	e.Run()
	if count != 6 {
		t.Fatalf("barrier rounds completed = %d, want 6", count)
	}
}

func TestTimeMonotone(t *testing.T) {
	e := NewEngine()
	var times []float64
	for i := 0; i < 50; i++ {
		d := float64((i * 7) % 13)
		e.Spawn("p", func(p *Proc) {
			p.Wait(d)
			times = append(times, p.Now())
			p.Wait(d / 2)
			times = append(times, p.Now())
		})
	}
	e.Run()
	if !sort.Float64sAreSorted(times) {
		t.Fatal("event execution times are not monotone")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Each case leaves one waiter that nothing will ever wake: a process,
	// or a continuation on each primitive a state machine parks on.
	cases := map[string]func(e *Engine){
		"process": func(e *Engine) {
			f := e.NewFuture()
			e.Spawn("stuck", func(p *Proc) { p.Do(f.Then) })
		},
		"future continuation": func(e *Engine) {
			f := e.NewFuture()
			e.At(1, func() { f.Then(func() {}) })
		},
		"barrier continuation": func(e *Engine) {
			b := e.NewBarrier(2)
			e.At(1, func() { b.ArriveThen(func() {}) })
		},
		"process behind a tombstone": func(e *Engine) {
			f := e.NewFuture()
			e.Spawn("stuck", func(p *Proc) {
				e.At(p.Now(), f.Complete).Cancel()
				p.Do(f.Then)
			})
		},
		"resource continuation": func(e *Engine) {
			r := e.NewResource(1)
			e.At(1, func() {
				r.AcquireThen(1, func() {})
				r.AcquireThen(1, func() {})
			})
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			build(e)
			defer func() {
				if recover() == nil {
					t.Fatal("Run did not panic on a waiter left with no pending events")
				}
			}()
			e.Run()
		})
	}
}

// TestProcPanicSurfacesFromRun checks that a process runs on Run's
// behalf: its panic leaves Run with the same value instead of killing
// the binary from a goroutine no one can recover.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Wait(1)
		panic("boom")
	})
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("Run panicked with %v, want boom", v)
		}
	}()
	e.Run()
}

// TestProcGoexitEndsRun checks that runtime.Goexit inside a process (a
// t.Fatal in a model test) ends the goroutine that called Run instead
// of leaving Run blocked.
func TestProcGoexitEndsRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("exit", func(p *Proc) {
		p.Wait(1)
		runtime.Goexit()
	})
	returned := false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		e.Run()
		returned = true
	}()
	select {
	case <-ended:
		if returned {
			t.Fatal("Run returned normally after a process called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10 s after a process called Goexit")
	}
}

func TestManyProcessesScale(t *testing.T) {
	e := NewEngine()
	const n = 10000
	done := 0
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Wait(1)
			p.Wait(1)
			done++
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
}

// TestTimerReschedule checks that Reschedule reorders events in the
// indexed heap: a timer moved earlier overtakes ones booked before it,
// a timer moved later falls behind, and equal-time retimed events fire
// after events already at that instant (retiming goes to the back).
func TestTimerReschedule(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string, at float64) *Timer {
		return e.At(at, func() { order = append(order, name) })
	}
	a := mk("a", 10)
	mk("b", 20)
	c := mk("c", 30)
	e.At(1, func() {
		if !a.Reschedule(25) { // a: 10 → 25, now after b
			t.Error("Reschedule(a) reported not pending")
		}
		if !c.Reschedule(5) { // c: 30 → 5, now first
			t.Error("Reschedule(c) reported not pending")
		}
	})
	e.Run()
	want := []string{"c", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestTimerRescheduleSameInstant pins the tie-break: a timer retimed
// onto an occupied instant fires after the events already booked there.
func TestTimerRescheduleSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	late := e.At(30, func() { order = append(order, "moved") })
	e.At(10, func() { order = append(order, "resident") })
	e.At(1, func() { late.Reschedule(10) })
	e.Run()
	if len(order) != 2 || order[0] != "resident" || order[1] != "moved" {
		t.Fatalf("order = %v, want [resident moved]", order)
	}
}

// TestTimerCancelLifecycle walks a timer's state machine: pending →
// canceled is reported exactly once, and fired/canceled timers refuse
// Cancel and Reschedule.
func TestTimerCancelLifecycle(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(5, func() { fired = true })
	e.At(1, func() {
		if !tm.Pending() {
			t.Error("timer not pending before cancel")
		}
		if !tm.Cancel() {
			t.Error("first Cancel returned false")
		}
		if tm.Cancel() {
			t.Error("second Cancel returned true")
		}
		if tm.Reschedule(9) {
			t.Error("Reschedule on canceled timer returned true")
		}
		if tm.Pending() {
			t.Error("timer still pending after cancel")
		}
	})
	done := e.At(2, func() {})
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if done.Cancel() || done.Reschedule(99) || done.Pending() {
		t.Fatal("fired timer accepted Cancel/Reschedule")
	}
	var nilTimer *Timer
	if nilTimer.Cancel() || nilTimer.Pending() || (&Timer{}).Cancel() {
		t.Fatal("nil/zero Timer not inert")
	}
}

// TestTimerChurnOrdering stresses the indexed heap with a deterministic
// cancel/reschedule churn and verifies every surviving event fires in
// nondecreasing time order at its final booked time.
func TestTimerChurnOrdering(t *testing.T) {
	e := NewEngine()
	const n = 500
	type booked struct {
		tm   *Timer
		at   float64
		dead bool
	}
	var (
		evs      []*booked
		firedAt  []float64
		expected int
	)
	for i := 0; i < n; i++ {
		at := float64(100 + (i*37)%400)
		b := &booked{at: at}
		b.tm = e.At(at, func() { firedAt = append(firedAt, e.Now()) })
		evs = append(evs, b)
	}
	// Deterministic churn at t=1: cancel every third, retime every
	// fifth survivor (pseudo-random but seed-free offsets).
	e.At(1, func() {
		for i, b := range evs {
			switch {
			case i%3 == 0:
				b.tm.Cancel()
				b.dead = true
			case i%5 == 0:
				at := float64(50 + (i*73)%500)
				b.tm.Reschedule(at)
				b.at = at
			}
		}
	})
	e.Run()
	for _, b := range evs {
		if !b.dead {
			expected++
		}
	}
	if len(firedAt) != expected {
		t.Fatalf("fired %d events, want %d", len(firedAt), expected)
	}
	if !sort.Float64sAreSorted(firedAt) {
		t.Fatal("churned events fired out of time order")
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < b.N/100+1; j++ {
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkTimerDispatch measures the engine's pure event dispatch:
// closure events (no process handoff) booked and fired through the
// indexed heap and event freelist.
func BenchmarkTimerDispatch(b *testing.B) {
	e := NewEngine()
	fired := 0
	e.Spawn("driver", func(p *Proc) {
		var tick func()
		tick = func() {
			if fired++; fired < b.N {
				e.At(e.Now()+1, tick)
			}
		}
		e.At(e.Now()+1, tick)
	})
	b.ResetTimer()
	e.Run()
	if fired != b.N && b.N > 0 {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkTimerCancel measures the indexed heap's structural removal:
// every booked timer is canceled before it can fire, the pattern a
// timeout-heavy model generates. The tombstone-scan design this
// replaced paid O(heap) on the next pop; the index makes each cancel
// O(log n).
func BenchmarkTimerCancel(b *testing.B) {
	e := NewEngine()
	e.Spawn("driver", func(p *Proc) {
		const live = 512 // keep a realistic heap depth under the churn
		timers := make([]*Timer, 0, live)
		for i := 0; i < b.N; i++ {
			if len(timers) == live {
				timers[i%live].Cancel()
				timers[i%live] = e.At(e.Now()+float64(live+i%live), func() {})
			} else {
				timers = append(timers, e.At(e.Now()+float64(live+i), func() {}))
			}
		}
		for _, t := range timers {
			t.Cancel()
		}
	})
	b.ResetTimer()
	e.Run()
}
