// Package des implements a deterministic discrete-event simulation
// engine, the substrate on which the large-scale experiments of the
// paper (up to 9216 cores on a Kraken-like machine) are replayed in
// virtual time.
//
// Model: an Engine owns a virtual clock and its pending events, and Run
// fires them one at a time on its own goroutine, in (time, seq) order,
// so execution is sequential and fully deterministic. Every simulated
// actor — the per-core ranks, the dedicated cores, the restart readers,
// the in-situ consumers, the reduction layers' transfers — is a state
// machine driven by continuations: it books its next step with
// Engine.Wait, Future.Then, Barrier.ArriveThen or Resource.AcquireThen,
// and each step runs to completion inside the event that fires it, so an
// actor costs no more than the events it books. Futures, Barriers and
// Resources wake their waiting continuations in FIFO order, each in an
// event of its own; one whose condition already holds runs inline.
// Callback events (Engine.At) are continuations with a cancelable,
// reschedulable handle. A panic inside a step leaves Run with the same
// value.
//
// Proc is a small adapter on those primitives for tests and
// micro-benchmarks: a coroutine (iter.Pull) whose body blocks in
// Proc.Wait and Proc.Do, each firing exactly the events of its
// continuation form. No model uses it.
//
// Pending events live in one of two places. An event booked for a later
// time goes into an indexed binary heap on (time, seq). An event booked
// for the current instant — a wake, a zero-delay Wait, a Spawn — goes to
// the back of the lane, a FIFO slice of the events due now; in the
// strategy runs that is over half of all events, and the lane books them
// in O(1) where the heap costs O(log n). Run fires the heap's events at
// the current time first, then drains the lane, and only then advances
// the clock to the heap's top. That is exactly (time, seq) order: an
// event reaches the heap only if it was booked before the clock reached
// its time, so it precedes every lane event of that instant. Cancelling
// a heap event removes it in O(log n); cancelling a lane event leaves a
// tombstone, which Run recycles without firing or counting it. A Timer
// retimed into the current instant or out of it is cancelled and booked
// afresh at the back of its new instant, as Cancel followed by At would.
package des

import (
	"fmt"
	"iter"
)

// event is a scheduled occurrence: a continuation, fn, to run at time.
// A pending event sits in the engine's indexed heap (index is its
// position, so Cancel and Reschedule there are O(log n) structural
// updates) or in the lane (index is inLane). Fired or canceled events
// are recycled through the engine's freelist — gen is bumped on every
// recycle so a stale Timer handle can never touch an event that now
// belongs to someone else.
type event struct {
	time  float64
	seq   uint64 // tie-breaker: FIFO among equal-time events
	fn    func()
	index int    // heap position, inLane, or notPending
	gen   uint32 // incarnation counter validated by Timer handles
}

// The index of an event that is not in the heap.
const (
	notPending = -1 // fired, canceled (a lane tombstone) or recycled
	inLane     = -2 // due at the current instant, waiting in the lane
)

// Engine is a discrete-event simulation engine. Create one with
// NewEngine, book the actors' first steps, then call Run. An Engine must
// not be used from multiple OS-level contexts at once; all interaction
// happens either before Run or from within the events it fires.
type Engine struct {
	now    float64
	seq    uint64
	events []*event // indexed binary min-heap on (time, seq), all after now
	lane   []*event // events due at now, in booking order, from head on
	head   int
	free   []*event // recycled event structs (see event.gen)
	nconts int      // continuations parked on a Future, Barrier or Resource (deadlock diagnostics)

	dispatched uint64 // events fired by Run
	spawned    int    // Proc adapters created by Spawn and SpawnAt
}

// The indexed heap. Identical ordering to the pre-index implementation
// — (time, seq) min-heap, so equal-time events fire in schedule order —
// but every sift updates event.index, which is what makes removal and
// retiming of an arbitrary pending event logarithmic.

func (e *Engine) heapLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (e *Engine) heapSwap(i, j int) {
	h := e.events
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (e *Engine) heapUp(i int) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(h[i], h[parent]) {
			break
		}
		e.heapSwap(i, parent)
		i = parent
	}
}

func (e *Engine) heapDown(i int) {
	h := e.events
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && e.heapLess(h[r], h[l]) {
			least = r
		}
		if !e.heapLess(h[least], h[i]) {
			return
		}
		e.heapSwap(i, least)
		i = least
	}
}

func (e *Engine) heapPush(ev *event) {
	ev.index = len(e.events)
	e.events = append(e.events, ev)
	e.heapUp(ev.index)
}

func (e *Engine) heapPop() *event {
	h := e.events
	ev := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[0].index = 0
	h[last] = nil
	e.events = h[:last]
	ev.index = notPending
	if last > 0 {
		e.heapDown(0)
	}
	return ev
}

// heapRemove unlinks a pending event from the heap.
func (e *Engine) heapRemove(ev *event) {
	i := ev.index
	last := len(e.events) - 1
	e.heapSwap(i, last)
	e.events[last] = nil
	e.events = e.events[:last]
	ev.index = notPending
	if i < last {
		e.heapDown(i)
		e.heapUp(i)
	}
}

// heapFix restores heap order after ev.time changed in place.
func (e *Engine) heapFix(ev *event) {
	e.heapDown(ev.index)
	e.heapUp(ev.index)
}

// newEvent takes an event struct off the freelist (or allocates one).
func (e *Engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle retires a fired or canceled event to the freelist. The gen
// bump invalidates every Timer handle still pointing at it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.index = notPending
	e.free = append(e.free, ev)
}

// cancel withdraws a pending event: a heap event is removed and
// recycled at once, a lane event becomes a tombstone that Run recycles
// when the lane reaches it.
func (e *Engine) cancel(ev *event) {
	if ev.index == inLane {
		ev.fn = nil
		ev.index = notPending
		return
	}
	e.heapRemove(ev)
	e.recycle(ev)
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// EventsDispatched returns the number of events Run has fired so far.
func (e *Engine) EventsDispatched() uint64 { return e.dispatched }

// ProcsSpawned returns the number of Proc adapters Spawn and SpawnAt
// have created.
func (e *Engine) ProcsSpawned() int { return e.spawned }

// schedule books an event at absolute time t that runs fn: at the back
// of the lane when t is now, into the heap when it is later.
func (e *Engine) schedule(t float64, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: t=%v now=%v", t, e.now))
	}
	ev := e.newEvent()
	ev.time = t
	ev.fn = fn
	e.seq++
	ev.seq = e.seq
	if t == e.now {
		ev.index = inLane
		e.lane = append(e.lane, ev)
	} else {
		e.heapPush(ev)
	}
	return ev
}

// wake books k at the current time, releasing it from a waiter list.
func (e *Engine) wake(k func()) {
	e.nconts--
	e.schedule(e.now, k)
}

// Wait runs k d virtual seconds from now (d >= 0), booking one event.
// It returns no Timer, so it allocates nothing beyond the recycled
// event.
func (e *Engine) Wait(d float64, k func()) {
	if d < 0 {
		panic("des: negative Wait")
	}
	e.schedule(e.now+d, k)
}

// Timer identifies a cancelable, reschedulable callback event booked
// with At, After or Set. The zero Timer and the nil Timer are inert:
// every method is a no-op reporting false.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint32
	fn  func()
}

// Pending reports whether the callback is still scheduled (not fired,
// not canceled): the timer's event is still the one it booked, and due.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index != notPending
}

// Cancel withdraws the callback so it never fires, reporting whether it
// was still pending. Canceling an already-fired or already-canceled
// timer is a no-op returning false. A later event is removed from the
// heap in O(log n) and recycled at once; an event due now leaves a
// tombstone in the lane, which Run recycles without firing or counting.
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.eng.cancel(t.ev)
	return true
}

// Reschedule moves a still-pending callback to absolute time at (>=
// Now) and reports whether the timer was pending. Either way the event
// goes to the back of its new instant: a retiming within the heap is an
// O(log n) fix in place, a retiming into or out of the current instant
// cancels the event and books it afresh. A fired or canceled timer is
// left alone (false): re-arming it would resurrect an event whose owner
// has moved on.
func (t *Timer) Reschedule(at float64) bool {
	if !t.Pending() {
		return false
	}
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("des: rescheduling into the past: t=%v now=%v", at, e.now))
	}
	if ev := t.ev; ev.index >= 0 && at > e.now {
		ev.time = at
		e.seq++
		ev.seq = e.seq
		e.heapFix(ev)
		return true
	}
	e.cancel(t.ev)
	t.book(at)
	return true
}

// NewTimer returns a timer for fn that is not booked yet; Set books it.
// A component that re-arms one callback over and over binds it once
// here instead of allocating a Timer per At.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// Set books the timer's callback at absolute time at (>= Now): a
// pending timer is retimed in place (Reschedule), a fired, canceled or
// never-booked one is booked afresh. Either way the event takes the
// next sequence number, exactly as Cancel followed by At would.
func (t *Timer) Set(at float64) {
	if !t.Reschedule(at) {
		t.book(at)
	}
}

// book schedules the timer's callback as a new event at at.
func (t *Timer) book(at float64) {
	t.ev = t.eng.schedule(at, t.fn)
	t.gen = t.ev.gen
}

// At schedules fn to run at absolute virtual time t (>= Now). fn runs in
// engine context: it must not block, but may complete Futures, release
// Resources and schedule further events.
func (e *Engine) At(t float64, fn func()) *Timer {
	tm := e.NewTimer(fn)
	tm.Set(t)
	return tm
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer {
	return e.At(e.now+d, fn)
}

// Run executes events until none is pending. It returns the final clock
// value. Run panics if continuations remain parked on a Future, Barrier
// or Resource with no pending events (a modeling deadlock).
func (e *Engine) Run() float64 {
	for {
		var ev *event
		switch {
		case len(e.events) > 0 && e.events[0].time == e.now:
			ev = e.heapPop() // booked before the clock got here: ahead of the lane
		case e.head < len(e.lane):
			ev = e.lane[e.head]
			e.lane[e.head] = nil
			if e.head++; e.head == len(e.lane) {
				e.lane, e.head = e.lane[:0], 0
			}
			if ev.index != inLane { // a tombstone
				e.recycle(ev)
				continue
			}
		case len(e.events) > 0:
			ev = e.heapPop()
			e.now = ev.time
		default:
			if e.nconts > 0 {
				panic(fmt.Sprintf("des: deadlock: %d continuation(s) blocked with no pending events", e.nconts))
			}
			return e.now
		}
		e.dispatched++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
}

// Future is a one-shot completion signal that continuations follow
// with Then.
type Future struct {
	eng   *Engine
	done  bool
	first func()   // held inline: most futures have one follower
	more  []func() // the followers after first, in arrival order
}

// NewFuture creates an incomplete future.
func (e *Engine) NewFuture() *Future { return &Future{eng: e} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Complete marks the future done and wakes all waiters at the current
// time. Completing twice panics: it indicates a modeling bug.
func (f *Future) Complete() {
	if f.done {
		panic("des: Future completed twice")
	}
	f.done = true
	if f.first != nil {
		f.eng.wake(f.first)
		f.first = nil
	}
	for _, w := range f.more {
		f.eng.wake(w)
	}
	f.more = nil
}

// Then runs k once the future completes: inline if it already has,
// otherwise in the event Complete books for it.
func (f *Future) Then(k func()) {
	if f.done {
		k()
		return
	}
	if f.first == nil {
		f.first = k
	} else {
		f.more = append(f.more, k)
	}
	f.eng.nconts++
}

// Resource is a FIFO counting resource (capacity units). Continuations
// acquire and release units; waiters are served in arrival order. It models e.g. a
// metadata server (capacity 1) or a bounded set of I/O tokens.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []resWaiter // the queue is waiters[head:]
	head     int
	// Busy accounting for utilization reports.
	busySince float64
	busyTotal float64
}

type resWaiter struct {
	k func()
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func (e *Engine) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// AcquireThen takes n units and runs k: inline when they are free and
// nobody queues ahead, otherwise in the event Release books once they
// are granted. FIFO: a request never overtakes an earlier one even if
// fewer units would fit.
func (r *Resource) AcquireThen(n int, k func()) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("des: Acquire(%d) on resource of capacity %d", n, r.capacity))
	}
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.take(n)
		k()
		return
	}
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		// Full, with granted slots in front: slide the queue down
		// instead of growing an array that never drains.
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters, r.head = r.waiters[:n], 0
	}
	r.waiters = append(r.waiters, resWaiter{k: k, n: n})
	r.eng.nconts++
}

func (r *Resource) take(n int) {
	if r.inUse == 0 {
		r.busySince = r.eng.now
	}
	r.inUse += n
}

// Release returns n units and grants queued requests in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("des: Release(%d) with %d in use", n, r.inUse))
	}
	r.inUse -= n
	if r.inUse == 0 {
		r.busyTotal += r.eng.now - r.busySince
	}
	for r.head < len(r.waiters) && r.inUse+r.waiters[r.head].n <= r.capacity {
		w := r.waiters[r.head]
		r.waiters[r.head] = resWaiter{} // a granted waiter is not retained
		if r.head++; r.head == len(r.waiters) {
			r.waiters, r.head = r.waiters[:0], 0 // drained: refill from the start
		}
		r.take(w.n)
		r.eng.wake(w.k)
	}
}

// BusyTime returns the total virtual time during which at least one unit
// was in use. If the resource is currently busy the open interval is
// included.
func (r *Resource) BusyTime() float64 {
	t := r.busyTotal
	if r.inUse > 0 {
		t += r.eng.now - r.busySince
	}
	return t
}

// Barrier is a reusable synchronization barrier for a fixed number of
// parties, used by the collective-I/O model's rounds.
type Barrier struct {
	eng     *Engine
	parties int
	arrived int
	waiters []func() // sized to parties-1 once, reused every generation
}

// NewBarrier creates a barrier for the given number of parties (> 0).
func (e *Engine) NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("des: barrier parties must be positive")
	}
	return &Barrier{eng: e, parties: parties, waiters: make([]func(), 0, parties-1)}
}

// ArriveThen counts one arrival and runs k once all parties have
// arrived: inline for the last arrival, otherwise in the event that
// arrival books for it. The last arrival of a generation wakes the
// earlier ones and resets the barrier for the next generation.
func (b *Barrier) ArriveThen(k func()) {
	b.arrived++
	if b.arrived < b.parties {
		b.waiters = append(b.waiters, k)
		b.eng.nconts++
		return
	}
	b.arrived = 0
	for _, q := range b.waiters {
		b.eng.wake(q)
	}
	clear(b.waiters)
	b.waiters = b.waiters[:0]
	k()
}

// Proc is a simulation process: a body that blocks in Wait and Do, run
// as a coroutine whose every resume is a continuation on the engine. It
// is an adapter for tests and micro-benchmarks, and fires exactly the
// events of the continuation forms it wraps. All Proc methods must be
// called from the process body.
type Proc struct {
	eng    *Engine
	name   string
	resume func() // runs the body until it next blocks or returns
	yield  func(struct{}) bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn creates a process executing fn, starting in an event booked at
// the current time.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that starts executing at absolute time t.
func (e *Engine) SpawnAt(t float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	// No stop: Run resumes every body to its end, or panics on deadlock.
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	p.resume = func() { next() }
	e.spawned++
	e.At(t, p.resume)
	return p
}

// Wait advances the process by d virtual seconds (d >= 0): Engine.Wait
// with the rest of the body as its continuation.
func (p *Proc) Wait(d float64) {
	p.eng.Wait(d, p.resume)
	p.yield(struct{}{})
}

// Do runs one continuation-form operation from the process body: it
// calls start with a continuation k and returns once k has run. A k
// that runs before start returns costs nothing; a later one resumes
// the process inside the event that calls it, so the blocking call
// fires exactly the events of the continuation form and no more.
func (p *Proc) Do(start func(k func())) {
	var done, parked bool
	start(func() {
		if done {
			panic("des: Do continuation called twice")
		}
		done = true
		if parked {
			p.resume()
		}
	})
	if !done {
		parked = true
		p.yield(struct{}{})
	}
}
