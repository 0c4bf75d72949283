// Package des implements a deterministic discrete-event simulation
// engine, the substrate on which the large-scale experiments of the
// paper (up to 9216 cores on a Kraken-like machine) are replayed in
// virtual time.
//
// Model: an Engine owns a virtual clock and an event heap, and Run fires
// the events one at a time on its own goroutine, in (time, seq) order,
// so execution is sequential and fully deterministic. Simulated actors
// come in two styles that share every primitive:
//
//   - A state machine is plain code driven by continuations: it books
//     its next step with Engine.Wait, Future.Then, Barrier.ArriveThen or
//     Resource.AcquireThen, and each step runs to completion inside the
//     event that fires it. It costs no more than the events it books,
//     which is why the per-core ranks of the strategies — tens of
//     thousands per paper-scale run — are state machines.
//   - A process (Proc) is a coroutine (iter.Pull) whose body blocks
//     (Wait, Await, Arrive, Acquire) until resumed. A Proc earns its
//     keep where control flow is a loop over blocking steps with
//     branches a state machine would have to spell out as states: the
//     per-node dedicated cores, the restart readers, the in-situ
//     consumers. Proc.Do calls a continuation-form operation (the
//     storage cost models have no other form) from a process body.
//
// Futures, Barriers and Resources keep one FIFO list for both styles:
// a waking continuation occupies exactly the event a resumed process
// would. A panic inside a process leaves Run with the same value; a
// runtime.Goexit in one (t.Fatal) ends the goroutine that called Run.
// Callback events (Engine.At) run inline in the engine and may wake
// waiters by completing Futures or releasing Resources.
package des

import (
	"fmt"
	"iter"
)

// event is a scheduled occurrence: either resume a process or invoke
// fn. Events live in the engine's indexed heap; index tracks the heap
// position so Cancel and Reschedule are O(log n) structural updates
// instead of leaving tombstones for Run to skip. Fired or canceled
// events are recycled through the engine's freelist — gen is bumped on
// every recycle so a stale Timer handle can never touch an event that
// now belongs to someone else.
type event struct {
	time float64
	seq  uint64 // tie-breaker: FIFO among equal-time events
	waiter
	index int    // heap position; -1 once popped, removed or recycled
	gen   uint32 // incarnation counter validated by Timer handles
}

// waiter is what an event or a parked party resumes: a process, or a
// continuation run in engine context (exactly one is non-nil). Futures,
// Barriers and Resources keep one FIFO list of them, so processes and
// continuations wake in arrival order whichever style each one is.
type waiter struct {
	proc *Proc
	fn   func()
}

// Engine is a discrete-event simulation engine. Create one with NewEngine,
// spawn processes, then call Run. An Engine must not be used from multiple
// OS-level contexts at once; all interaction happens either before Run or
// from within processes/callbacks.
type Engine struct {
	now    float64
	seq    uint64
	events []*event // indexed binary min-heap on (time, seq)
	free   []*event // recycled event structs (see event.gen)
	nprocs int      // live processes (deadlock diagnostics)
	nconts int      // continuations parked on a Future, Barrier or Resource (deadlock diagnostics)

	dispatched uint64 // events fired by Run
	spawned    int    // processes created by Spawn and SpawnAt
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
	ev.index = -1
	if last > 0 {
		e.heapDown(0)
	}
	return ev
}

// heapRemove unlinks a pending event, reporting false when the event
// is no longer in the heap (already fired or removed).
func (e *Engine) heapRemove(ev *event) bool {
	i := ev.index
	if i < 0 || i >= len(e.events) || e.events[i] != ev {
		return false
	}
	last := len(e.events) - 1
	e.heapSwap(i, last)
	e.events[last] = nil
	e.events = e.events[:last]
	ev.index = -1
	if i < last {
		e.heapDown(i)
		e.heapUp(i)
	}
	return true
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
	ev.waiter = waiter{}
	ev.index = -1
	e.free = append(e.free, ev)
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// EventsDispatched returns the number of events Run has fired so far:
// process resumes, continuations and callbacks alike.
func (e *Engine) EventsDispatched() uint64 { return e.dispatched }

// ProcsSpawned returns the number of processes Spawn and SpawnAt have
// created.
func (e *Engine) ProcsSpawned() int { return e.spawned }

// schedule books an event at absolute time t that resumes w.
func (e *Engine) schedule(t float64, w waiter) *event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: t=%v now=%v", t, e.now))
	}
	ev := e.newEvent()
	ev.time = t
	ev.waiter = w
	e.seq++
	ev.seq = e.seq
	e.heapPush(ev)
	return ev
}

// wake books w at the current time, releasing it from a waiter list.
func (e *Engine) wake(w waiter) {
	if w.fn != nil {
		e.nconts--
	}
	e.schedule(e.now, w)
}

// block parks w, which the caller has just queued on a waiter list: a
// process yields until an event resumes it, a continuation is counted
// until one runs it, so Run can report either kind left behind.
func (e *Engine) block(w waiter) {
	if w.fn != nil {
		e.nconts++
		return
	}
	w.proc.park()
}

// ready lets w carry on at once, its condition already met: a
// continuation runs inline, a process simply returns from its call.
func (w waiter) ready() {
	if w.fn != nil {
		w.fn()
	}
}

// Wait runs k d virtual seconds from now (d >= 0): the continuation
// form of Proc.Wait, booking the same single event. It returns no
// Timer, so it allocates nothing beyond the recycled event.
func (e *Engine) Wait(d float64, k func()) {
	if d < 0 {
		panic("des: negative Wait")
	}
	e.schedule(e.now+d, waiter{fn: k})
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

// pending reports whether the timer's event is still the one it booked
// and still in the heap.
func (t *Timer) pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Pending reports whether the callback is still scheduled (not fired,
// not canceled).
func (t *Timer) Pending() bool { return t.pending() }

// Cancel removes the callback from the event heap so it never fires,
// reporting whether it was still pending. Canceling an already-fired
// or already-canceled timer is a no-op returning false. The removal is
// structural (O(log n)) — a canceled event costs nothing at dispatch
// time and its memory is recycled immediately.
func (t *Timer) Cancel() bool {
	if !t.pending() {
		return false
	}
	e := t.eng
	ev := t.ev
	if !e.heapRemove(ev) {
		return false
	}
	e.recycle(ev)
	return true
}

// Reschedule moves a still-pending callback to absolute time at
// (>= Now) in place — an O(log n) heap fix, not a cancel-plus-At — and
// reports whether the timer was pending. A fired or canceled timer is
// left alone (false): re-arming it would resurrect an event whose
// owner has moved on.
func (t *Timer) Reschedule(at float64) bool {
	if !t.pending() {
		return false
	}
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("des: rescheduling into the past: t=%v now=%v", at, e.now))
	}
	t.ev.time = at
	e.seq++
	t.ev.seq = e.seq // retimed event goes to the back of its new instant
	e.heapFix(t.ev)
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
	if t.Reschedule(at) {
		return
	}
	t.ev = t.eng.schedule(at, waiter{fn: t.fn})
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

// Proc is a simulation process. All Proc methods must be called from the
// process body.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool) // resume; false once the body returned
	yield func(struct{}) bool     // park, back to Run
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn creates a process executing fn, starting at the current virtual
// time (or, during Run, at the moment Spawn is called).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that starts executing at absolute time t.
func (e *Engine) SpawnAt(t float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	// No stop: Run resumes every body to its end, or panics on deadlock.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	e.nprocs++
	e.spawned++
	e.schedule(t, waiter{proc: p})
	return p
}

// resume runs the process until it parks or its body returns.
func (p *Proc) resume() {
	if _, ok := p.next(); !ok {
		p.eng.nprocs--
	}
}

// park hands control back to the engine and blocks until resumed.
// The caller must already have arranged for a future resume (a scheduled
// event, a Future completion, or a Resource grant), otherwise the process
// deadlocks — Run will report it.
func (p *Proc) park() { p.yield(struct{}{}) }

// Wait advances the process by d virtual seconds (d >= 0).
func (p *Proc) Wait(d float64) {
	if d < 0 {
		panic("des: negative Wait")
	}
	p.eng.schedule(p.eng.now+d, waiter{proc: p})
	p.park()
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
		p.park()
	}
}

// Run executes events until the heap is empty. It returns the final clock
// value. Run panics if processes remain blocked with no pending events
// (a modeling deadlock).
func (e *Engine) Run() float64 {
	for len(e.events) > 0 {
		ev := e.heapPop()
		e.now = ev.time
		e.dispatched++
		w := ev.waiter
		e.recycle(ev)
		if w.fn != nil {
			w.fn()
		} else {
			w.proc.resume()
		}
	}
	if e.nprocs > 0 || e.nconts > 0 {
		panic(fmt.Sprintf("des: deadlock: %d process(es) and %d continuation(s) blocked with no pending events",
			e.nprocs, e.nconts))
	}
	return e.now
}

// Future is a one-shot completion signal that processes can Await and
// continuations can follow with Then.
type Future struct {
	eng     *Engine
	done    bool
	waiters []waiter
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
	for _, w := range f.waiters {
		f.eng.wake(w)
	}
	f.waiters = nil
}

// Await blocks the process until the future completes. Returns immediately
// if it already has.
func (p *Proc) Await(f *Future) { f.wait(waiter{proc: p}) }

// Then runs k once the future completes: inline if it already has,
// otherwise in the event Complete books for it.
func (f *Future) Then(k func()) { f.wait(waiter{fn: k}) }

func (f *Future) wait(w waiter) {
	if f.done {
		w.ready()
		return
	}
	f.waiters = append(f.waiters, w)
	f.eng.block(w)
}

// Resource is a FIFO counting resource (capacity units). Processes Acquire
// and Release units; waiters are served in arrival order. It models e.g. a
// metadata server (capacity 1) or a bounded set of I/O tokens.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []resWaiter
	// Busy accounting for utilization reports.
	busySince float64
	busyTotal float64
}

type resWaiter struct {
	waiter
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func (e *Engine) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire blocks until n units are available and takes them. FIFO: a
// request never overtakes an earlier one even if fewer units would fit.
func (p *Proc) Acquire(r *Resource, n int) {
	r.acquire(n, waiter{proc: p})
}

// AcquireThen takes n units and runs k: inline when they are free and
// nobody queues ahead, otherwise in the event Release books once they
// are granted. FIFO with Acquire.
func (r *Resource) AcquireThen(n int, k func()) {
	r.acquire(n, waiter{fn: k})
}

func (r *Resource) acquire(n int, w waiter) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("des: Acquire(%d) on resource of capacity %d", n, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.take(n)
		w.ready()
		return
	}
	r.waiters = append(r.waiters, resWaiter{waiter: w, n: n})
	r.eng.block(w)
}

func (r *Resource) take(n int) {
	if r.inUse == 0 {
		r.busySince = r.eng.now
	}
	r.inUse += n
}

// Release returns n units and grants queued requests in FIFO order.
// It may be called from a process or an engine callback.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("des: Release(%d) with %d in use", n, r.inUse))
	}
	r.inUse -= n
	if r.inUse == 0 {
		r.busyTotal += r.eng.now - r.busySince
	}
	for len(r.waiters) > 0 && r.inUse+r.waiters[0].n <= r.capacity {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.take(w.n)
		r.eng.wake(w.waiter)
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
	gen     int
	waiters []waiter
}

// NewBarrier creates a barrier for the given number of parties (> 0).
func (e *Engine) NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("des: barrier parties must be positive")
	}
	return &Barrier{eng: e, parties: parties}
}

// Arrive blocks until all parties have arrived, then releases everyone and
// resets for the next generation.
func (p *Proc) Arrive(b *Barrier) { b.arrive(waiter{proc: p}) }

// ArriveThen counts one arrival and runs k once all parties have
// arrived: inline for the last arrival, otherwise in the event that
// arrival books for it.
func (b *Barrier) ArriveThen(k func()) { b.arrive(waiter{fn: k}) }

// arrive counts w's arrival. The last one of a generation wakes the
// earlier ones, resets the barrier and carries on.
func (b *Barrier) arrive(w waiter) {
	b.arrived++
	if b.arrived < b.parties {
		b.waiters = append(b.waiters, w)
		b.eng.block(w)
		return
	}
	b.arrived = 0
	b.gen++
	for _, q := range b.waiters {
		b.eng.wake(q)
	}
	b.waiters = nil
	w.ready()
}
