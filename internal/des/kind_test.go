package des

import (
	"fmt"
	"testing"
)

// TestKindsFireInTimeThenSeqOrder: events of kinds, registered once,
// fire with their actor index, interleaved with func events in (time,
// seq) order while every kind keeps the shared rank 0.
func TestKindsFireInTimeThenSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	a := e.Handle(func(i int32) { got = append(got, fmt.Sprintf("a%d@%v", i, e.Now())) })
	b := e.Handle(func(i int32) { got = append(got, fmt.Sprintf("b%d@%v", i, e.Now())) })
	e.Post(2, b, 7)
	e.Post(1, a, 1)
	e.Wait(1, func() {
		got = append(got, fmt.Sprintf("f@%v", e.Now()))
		e.Post(0, b, 2) // due now: the back of the lane
		e.Post(1, a, 3) // due at 2, after b7
	})
	e.Post(1, b, 4)
	e.Run()
	want := "[a1@1 f@1 b4@1 b2@1 b7@2 a3@2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// TestSetRankOrdersAnInstant: among the events due at one instant a
// lower rank fires first, whether they wait in the heap or in the lane;
// equal ranks keep booking order.
func TestSetRankOrdersAnInstant(t *testing.T) {
	e := NewEngine()
	var got []string
	late := e.Handle(func(i int32) { got = append(got, fmt.Sprintf("late%d", i)) })
	early := e.Handle(func(i int32) { got = append(got, fmt.Sprintf("early%d", i)) })
	e.SetRank(late, 1)
	e.Post(1, late, 0) // heap, rank 1
	e.Post(1, early, 0)
	e.Wait(1, func() { // rank 0, booked after the two above
		got = append(got, "func")
		e.Post(0, late, 1)  // lane
		e.Post(0, early, 1) // below the lane's tail: ahead of late1 and late0
		e.Post(0, early, 2)
	})
	e.Run()
	want := "[early0 func early1 early2 late0 late1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// TestKindFormsMatchFuncForms: the kind forms of Future.Then,
// Barrier.ArriveThen and Resource.AcquireThen run inline exactly where
// the func forms do and otherwise book the same events at the same
// times.
func TestKindFormsMatchFuncForms(t *testing.T) {
	run := func(kinds bool) (trace []string, events uint64) {
		e := NewEngine()
		mark := func(who int32) { trace = append(trace, fmt.Sprintf("%d@%v", who, e.Now())) }
		k := e.Handle(mark)
		f, b, r := e.NewFuture(), e.NewBarrier(2), e.NewResource(1)
		follow := func(who int32) {
			if kinds {
				f.ThenPost(k, who)
			} else {
				f.Then(func() { mark(who) })
			}
		}
		arrive := func(who int32) {
			if kinds {
				b.ArrivePost(k, who)
			} else {
				b.ArriveThen(func() { mark(who) })
			}
		}
		acquire := func(who int32) {
			if kinds {
				r.AcquirePost(1, k, who)
			} else {
				r.AcquireThen(1, func() { mark(who) })
			}
		}
		follow(1)
		follow(2)
		acquire(3) // inline
		acquire(4)
		arrive(5)
		e.Wait(1, func() { f.Complete(); follow(6); r.Release(1); arrive(7) })
		e.Wait(2, func() { r.Release(1) })
		e.Run()
		return trace, e.EventsDispatched()
	}
	funcs, nf := run(false)
	kinds, nk := run(true)
	if fmt.Sprint(funcs) != fmt.Sprint(kinds) || nf != nk {
		t.Fatalf("func forms %v in %d events, kind forms %v in %d", funcs, nf, kinds, nk)
	}
	if want := "[3@0 6@1 7@1 1@1 2@1 4@1 5@1]"; fmt.Sprint(kinds) != want {
		t.Fatalf("fired %v, want %s", kinds, want)
	}
}

// TestPostTimer: a timer of a kind, held by value, sets, retimes and
// cancels as a func timer does.
func TestPostTimer(t *testing.T) {
	e := NewEngine()
	var at []float64
	k := e.Handle(func(int32) { at = append(at, e.Now()) })
	timers := []Timer{e.PostTimer(k, 0), e.PostTimer(k, 1)}
	timers[0].Set(5)
	timers[1].Set(3)
	e.Wait(1, func() {
		timers[0].Set(2)
		timers[1].Cancel()
	})
	e.Run()
	if fmt.Sprint(at) != "[2]" || timers[0].Pending() || timers[1].Pending() {
		t.Fatalf("fired at %v", at)
	}
}

// TestPostAllocatesNothing: booking and firing kind events, and
// parking them on a future and a barrier, costs no allocation once the
// free list is warm.
func TestPostAllocatesNothing(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier(2)
	var f *Future
	n := 0
	var step, done Kind
	step = e.Handle(func(i int32) {
		if n++; n%100 != 0 {
			e.Post(float64(i%3), step, i+1)
		}
	})
	done = e.Handle(func(int32) { f.Complete(); b.ArrivePost(step, 1) })
	round := func() {
		f = e.NewFuture()
		f.ThenPost(step, 0)
		b.ArrivePost(step, 2)
		e.Post(1, done, 0)
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs > 1 {
		t.Fatalf("%v allocations per round, want the future's one", allocs)
	}
}
