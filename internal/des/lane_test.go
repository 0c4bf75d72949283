package des

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestHeapEventPrecedesLane checks the lane's one ordering rule: an
// event booked for t before the clock reached t fires before every
// zero-delay event booked at t, even one booked by an earlier event of
// that instant.
func TestHeapEventPrecedesLane(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	e.At(5, func() {
		order = append(order, "a")
		e.Wait(0, log("a's wait"))
		e.At(5, log("a's at"))
	})
	e.At(5, func() {
		order = append(order, "b")
		e.Spawn("b's proc", func(p *Proc) { order = append(order, p.Name()) })
	})
	e.At(2, func() { e.At(5, log("booked at 2")) })
	e.Run()
	want := []string{"a", "b", "booked at 2", "a's wait", "a's at", "b's proc"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %q, want %q", order, want)
	}
}

// TestCancelledLaneEvent checks that cancelling an event due now leaves
// it unfired and uncounted, and that its Timer behaves as after any
// Cancel: not pending, Cancel and Reschedule refused, Set books afresh.
func TestCancelledLaneEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(1, func() {
		tm := e.At(1, func() { order = append(order, "cancelled") })
		e.Wait(0, func() { order = append(order, "kept") })
		if !tm.Cancel() {
			t.Error("Cancel of a lane event reported not pending")
		}
		if tm.Pending() || tm.Cancel() || tm.Reschedule(2) {
			t.Error("a cancelled lane event's Timer still acts pending")
		}
		re := e.NewTimer(func() { order = append(order, "re-set") })
		re.Set(1)
		re.Cancel()
		re.Set(1) // books afresh behind "kept"
	})
	if end := e.Run(); end != 1 {
		t.Fatalf("Run ended at %v, want 1", end)
	}
	if want := []string{"kept", "re-set"}; !slices.Equal(order, want) {
		t.Fatalf("fired %q, want %q", order, want)
	}
	if got := e.EventsDispatched(); got != 3 {
		t.Fatalf("%d events dispatched, want 3 (tombstones are not counted)", got)
	}
}

// TestRescheduleAcrossLane checks that a timer moved from the heap to
// the current instant, from the current instant to later, or within the
// current instant goes to the back of its new instant.
func TestRescheduleAcrossLane(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	toNow := e.At(9, log("heap→now"))
	e.At(3, log("resident at 3"))
	e.At(1, func() {
		e.Wait(0, log("lane 1"))
		if !toNow.Reschedule(1) {
			t.Error("Reschedule of a heap event reported not pending")
		}
		e.Wait(0, log("lane 2"))

		toLater := e.At(1, log("now→later"))
		within := e.At(1, log("now→now"))
		e.Wait(0, log("lane 3"))
		if !toLater.Reschedule(3) || !within.Reschedule(1) {
			t.Error("Reschedule of a lane event reported not pending")
		}
	})
	e.Run()
	want := []string{"lane 1", "heap→now", "lane 2", "lane 3", "now→now", "resident at 3", "now→later"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %q, want %q", order, want)
	}
	if got := e.EventsDispatched(); got != uint64(len(want))+1 {
		t.Fatalf("%d events dispatched, want %d", got, len(want)+1)
	}
}

// TestRunEndsOnTombstones checks that Run returns when all that is left
// is cancelled lane events, and still reports a deadlock behind them.
func TestRunEndsOnTombstones(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {
		for range 3 {
			e.At(1, func() { t.Error("a cancelled event fired") }).Cancel()
		}
	})
	if end := e.Run(); end != 1 {
		t.Fatalf("Run ended at %v, want 1", end)
	}
	if got := e.EventsDispatched(); got != 1 {
		t.Fatalf("%d events dispatched, want 1", got)
	}

	e = NewEngine()
	f := e.NewFuture()
	e.At(1, func() {
		f.Then(func() {})
		e.At(1, f.Complete).Cancel()
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not report the continuation left behind the tombstone")
		}
	}()
	e.Run()
}

// TestResourceReleaseDropsGrantedWaiter checks that a Resource keeps no
// reference to a continuation it has granted: once the grant has fired,
// what the continuation holds can be collected while the Resource and
// its Engine live on.
func TestResourceReleaseDropsGrantedWaiter(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	collected := make(chan struct{})
	e.At(0, func() {
		r.AcquireThen(1, func() {})
		held := new([64]byte)
		runtime.SetFinalizer(held, func(*[64]byte) { close(collected) })
		r.AcquireThen(1, func() { held[0]++; r.Release(1) })
	})
	e.At(1, func() { r.Release(1) })
	e.Run()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(r)
			runtime.KeepAlive(e)
			return
		case <-deadline:
			t.Fatal("the granted continuation is still reachable from the Resource")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestResourceQueueStaysCompact checks that a queue which never drains
// reuses the slots of granted waiters instead of growing without bound.
func TestResourceQueueStaysCompact(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	granted := 0
	var hold func()
	hold = func() {
		if granted++; granted < 10000 {
			r.AcquireThen(1, hold) // queue behind the two already waiting
		}
		e.Wait(1, func() { r.Release(1) })
	}
	e.At(0, func() {
		for range 3 {
			r.AcquireThen(1, hold)
		}
	})
	e.Run()
	if granted != 10000+2 {
		t.Fatalf("%d grants, want %d", granted, 10000+2)
	}
	if c := cap(r.waiters); c > 8 {
		t.Fatalf("queue of at most 3 waiters grew to capacity %d", c)
	}
}
