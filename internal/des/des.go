// Package des implements a deterministic discrete-event simulation
// engine, the substrate on which the large-scale experiments of the
// paper (up to 9216 cores on a Kraken-like machine) are replayed in
// virtual time.
//
// An event is the tuple (at, kind, seq, actor): a virtual time, a kind,
// the engine's booking sequence number and an int32 actor index. A kind
// is a handler registered once per engine (Engine.Handle) and called
// with the actor index, so a model keeps its actors — ranks, OSTs,
// transfers — by value in slices and books a step as a kind plus an
// index, with no closure per actor or per event. Kind 0, the func kind,
// carries a one-off continuation as a func() (Wait, At, Then). Run fires
// events one at a time, in (time, kind rank, seq) order; every kind
// starts at rank 0, which leaves (time, seq), and SetRank orders the
// kinds due at one instant. Each actor is a state machine: a step books
// the next (Wait or Post, Future.Then or ThenPost, Resource.AcquirePost)
// and runs to completion in the event that fires it. Futures and
// Resources wake waiters in FIFO order, each in an event of its own; one
// whose condition already holds runs inline. A panic inside a step
// leaves Run with it.
//
// Proc adapts those primitives for tests and micro-benchmarks: a
// coroutine (iter.Pull) whose body blocks in Proc.Wait and Proc.Do,
// firing exactly the events of its continuation form. No model uses it.
//
// A later event goes into an indexed binary heap; one due now goes to
// the back of the lane, a FIFO slice, in O(1), unless its rank is below
// the lane's tail. Run fires the earlier of the heap's top and the
// lane's head. Cancelling a heap event removes it in O(log n); a lane
// event leaves a tombstone that Run recycles unfired and uncounted.
// Events are recycled through a free list refilled 64 at a time.
package des

import (
	"fmt"
	"iter"
)

// Kind names an event handler registered with Engine.Handle.
type Kind int32

// cont is a continuation: fn, or else kind's handler applied to actor.
type cont struct {
	fn    func()
	kind  Kind
	actor int32
}

// event is a scheduled continuation, in the heap (index is its
// position) or in the lane (index is inLane). gen is bumped on every
// recycle, so a stale Timer handle never touches an event that now
// belongs to someone else.
type event struct {
	time float64
	seq  uint64 // tie-breaker: FIFO among equal-time, equal-rank events
	cont
	index int    // heap position, inLane, or notPending
	rank  int32  // its kind's rank when booked
	gen   uint32 // incarnation counter validated by Timer handles
}

// The index of an event that is not in the heap.
const (
	notPending = -1 // fired, canceled (a lane tombstone) or recycled
	inLane     = -2 // due at the current instant, waiting in the lane
)

// Engine is a discrete-event simulation engine: NewEngine, register
// handlers, book the actors' first steps, then Run. It is used from one
// goroutine, before Run or from within the events it fires.
type Engine struct {
	now    float64
	seq    uint64
	events []*event // indexed binary min-heap on (time, rank, seq)
	lane   []*event // events due at now, in (rank, seq) order, from head on
	head   int
	free   []*event // recycled event structs (see event.gen)
	nconts int      // continuations parked on a Future or Resource (deadlock diagnostics)

	handlers []func(actor int32) // kind k's handler is handlers[k-1]
	ranks    []int32             // and its rank ranks[k-1]

	dispatched uint64 // events fired by Run
	spawned    int    // Proc adapters created by Spawn and SpawnAt
}

// Handle registers fn as the handler of a new kind and returns it. The
// kind's events call fn with their actor index, at rank 0.
func (e *Engine) Handle(fn func(actor int32)) Kind {
	e.handlers = append(e.handlers, fn)
	e.ranks = append(e.ranks, 0)
	return Kind(len(e.handlers))
}

// SetRank sets k's rank (the func kind's is 0): of the events due at one
// instant, lower ranks fire first. An event keeps its booking's rank.
func (e *Engine) SetRank(k Kind, rank int32) { e.ranks[k-1] = rank }

// run runs a continuation in the current event.
func (e *Engine) run(c cont) {
	if c.fn != nil {
		c.fn()
		return
	}
	e.handlers[c.kind-1](c.actor)
}

// The indexed heap: every sift updates event.index, which is what makes
// removal and retiming of an arbitrary pending event logarithmic.

func (e *Engine) heapLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.rank != b.rank {
		return a.rank < b.rank
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
	ev := e.events[0]
	e.heapRemove(ev)
	return ev
}

// heapRemove unlinks a pending event from the heap.
func (e *Engine) heapRemove(ev *event) {
	i, last := ev.index, len(e.events)-1
	e.heapSwap(i, last)
	e.events[last] = nil
	e.events = e.events[:last]
	ev.index = notPending
	if i < last {
		e.heapFix(i)
	}
}

// heapFix restores heap order at position i after its time changed.
func (e *Engine) heapFix(i int) {
	e.heapDown(i)
	e.heapUp(i)
}

// newEvent takes an event off the freelist, refilling it a block at a time.
func (e *Engine) newEvent() *event {
	if len(e.free) == 0 {
		blk := make([]event, 64)
		for i := range blk {
			e.free = append(e.free, &blk[i])
		}
	}
	ev := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return ev
}

// recycle retires a fired or canceled event to the freelist.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.cont = cont{}
	ev.index = notPending
	e.free = append(e.free, ev)
}

// cancel withdraws a pending event: out of the heap at once, or left
// in the lane as a tombstone.
func (e *Engine) cancel(ev *event) {
	if ev.index == inLane {
		ev.cont = cont{}
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

// schedule books c as an event at absolute time t: at the back of the
// lane when t is now and no lane event outranks it, else into the heap.
func (e *Engine) schedule(t float64, c cont) *event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: t=%v now=%v", t, e.now))
	}
	ev := e.newEvent()
	ev.time, ev.cont, ev.rank = t, c, 0
	if c.fn == nil {
		ev.rank = e.ranks[c.kind-1]
	}
	e.seq++
	ev.seq = e.seq
	if t == e.now && (e.head == len(e.lane) || e.lane[len(e.lane)-1].rank <= ev.rank) {
		ev.index = inLane
		e.lane = append(e.lane, ev)
	} else {
		e.heapPush(ev)
	}
	return ev
}

// wake books c at the current time, releasing it from a waiter list.
func (e *Engine) wake(c cont) {
	e.nconts--
	e.schedule(e.now, c)
}

// Wait runs k d virtual seconds from now (d >= 0), booking one event.
func (e *Engine) Wait(d float64, k func()) { e.after(d, cont{fn: k}) }

// Post books an event of kind k for actor d virtual seconds from now
// (d >= 0): Wait's kind form.
func (e *Engine) Post(d float64, k Kind, actor int32) { e.after(d, cont{kind: k, actor: actor}) }

// PostAt is Post at absolute virtual time t (>= Now).
func (e *Engine) PostAt(t float64, k Kind, actor int32) { e.schedule(t, cont{kind: k, actor: actor}) }

func (e *Engine) after(d float64, c cont) {
	if d < 0 {
		panic("des: negative Wait")
	}
	e.schedule(e.now+d, c)
}

// Timer identifies a cancelable, reschedulable event booked with At,
// After or Set. The zero Timer and the nil Timer are inert: every
// method is a no-op reporting false.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint32
	k   cont
}

// Pending reports whether the callback is still scheduled (not fired,
// not canceled): the timer's event is still the one it booked, and due.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index != notPending
}

// Cancel withdraws the callback so it never fires, reporting whether it
// was still pending; on a fired or canceled timer it is a no-op.
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.eng.cancel(t.ev)
	return true
}

// Reschedule moves a still-pending callback to absolute time at (>=
// Now), at the back of that instant, and reports whether it was pending.
// A fired or canceled timer is left alone (false): re-arming it would
// resurrect an event whose owner has moved on.
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
		e.heapFix(ev.index)
		return true
	}
	e.cancel(t.ev)
	t.book(at)
	return true
}

// NewTimer returns a timer for fn that is not booked yet; Set books it,
// as often as its owner re-arms it.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, k: cont{fn: fn}} }

// PostTimer is NewTimer's kind form, by value, so an actor held in a
// slice can hold its timer too.
func (e *Engine) PostTimer(k Kind, actor int32) Timer {
	return Timer{eng: e, k: cont{kind: k, actor: actor}}
}

// Set books the timer's callback at absolute time at (>= Now), retimed
// if pending, as Cancel followed by At would.
func (t *Timer) Set(at float64) {
	if !t.Reschedule(at) {
		t.book(at)
	}
}

// book schedules the timer's callback as a new event at at.
func (t *Timer) book(at float64) {
	t.ev = t.eng.schedule(at, t.k)
	t.gen = t.ev.gen
}

// At schedules fn to run at absolute virtual time t (>= Now), in engine
// context: it must not block.
func (e *Engine) At(t float64, fn func()) *Timer {
	tm := e.NewTimer(fn)
	tm.Set(t)
	return tm
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer { return e.At(e.now+d, fn) }

// Run executes events until none is pending. It returns the final clock
// value. Run panics if continuations remain parked on a Future or
// Resource with no pending events (a modeling deadlock).
func (e *Engine) Run() float64 {
	for {
		var ev *event
		switch {
		case len(e.events) > 0 && e.events[0].time == e.now &&
			(e.head == len(e.lane) || e.heapLess(e.events[0], e.lane[e.head])):
			ev = e.heapPop()
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
		c := ev.cont
		e.recycle(ev)
		e.run(c)
	}
}

// Future is a one-shot completion signal that continuations follow
// with Then or ThenPost. A zero Future copied from *NewFuture() may be
// embedded in its owner.
type Future struct {
	eng   *Engine
	done  bool
	first cont   // held inline: most futures have one follower
	more  []cont // the followers after first, in arrival order
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
	if f.first.fn != nil || f.first.kind != 0 {
		f.eng.wake(f.first)
		f.first = cont{}
	}
	for _, w := range f.more {
		f.eng.wake(w)
	}
	f.more = nil
}

// Then runs k once the future completes: inline if it already has,
// otherwise in the event Complete books for it.
func (f *Future) Then(k func()) { f.then(cont{fn: k}) }

// ThenPost is Then's kind form: actor's handler of kind k follows.
func (f *Future) ThenPost(k Kind, actor int32) { f.then(cont{kind: k, actor: actor}) }

func (f *Future) then(c cont) {
	if f.done {
		f.eng.run(c)
		return
	}
	if f.first.fn == nil && f.first.kind == 0 {
		f.first = c
	} else {
		f.more = append(f.more, c)
	}
	f.eng.nconts++
}

// Resource is a FIFO counting resource of capacity units, e.g. a flat
// cost model's storage target (capacity 1); waiters are served in order.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []resWaiter // the queue is waiters[head:]
	head     int
}

type resWaiter struct {
	k cont
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func (e *Engine) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// AcquirePost takes n units and runs actor's handler of kind k: inline
// when they are free and nobody queues ahead, else in the event Release
// books once they are granted. A request never overtakes an earlier
// one, even a bigger one.
func (r *Resource) AcquirePost(n int, k Kind, actor int32) { r.acquire(n, cont{kind: k, actor: actor}) }

func (r *Resource) acquire(n int, k cont) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("des: Acquire(%d) on resource of capacity %d", n, r.capacity))
	}
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.inUse += n
		r.eng.run(k)
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

// Release returns n units and grants queued requests in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("des: Release(%d) with %d in use", n, r.inUse))
	}
	r.inUse -= n
	for r.head < len(r.waiters) && r.inUse+r.waiters[r.head].n <= r.capacity {
		w := r.waiters[r.head]
		r.waiters[r.head] = resWaiter{} // a granted waiter is not retained
		if r.head++; r.head == len(r.waiters) {
			r.waiters, r.head = r.waiters[:0], 0 // drained: refill from the start
		}
		r.inUse += w.n
		r.eng.wake(w.k)
	}
}

// Proc is a simulation process: a body that blocks in Wait and Do, run
// as a coroutine whose every resume is a continuation on the engine. All
// Proc methods must be called from the process body.
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
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc { return e.SpawnAt(e.now, name, fn) }

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

// Do calls start with a continuation k and returns once k has run: at
// once if k ran inside start, else resumed in the event that runs k, so
// it fires exactly the events of the continuation form.
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
