package des

import (
	"fmt"
	"testing"
)

// The order fuzzer drives an engine with a byte string of operations —
// At, Wait, Spawn, Timer.Set/Cancel/Reschedule, Future, Barrier and
// Resource waits and wakes, into the current instant and out of it —
// beside a reference model that books every event the engine should
// book, with its own sequence counter. Each firing must be the model's
// smallest pending (time, seq): the firing order is the reference sort.

// The operations the fuzz input can ask for, one byte each: the byte
// mod numOrderOps picks the operation, the quotient its argument.
const (
	opAt         = iota // new timer at now+d
	opWait              // Engine.Wait(d, k)
	opSpawn             // SpawnAt(now+d)
	opSet               // Timer.Set(now+d), or a fresh NewTimer
	opCancel            // Timer.Cancel
	opReschedule        // Timer.Reschedule(now+d)
	opThen              // Future.Then
	opComplete          // Future.Complete (once)
	opNewFuture         // another Future to wait on
	opArrive            // Barrier.ArriveThen
	opAcquire           // Resource.AcquireThen(1 or 2)
	opRelease           // Resource.Release of a granted lot
	opBlock             // a process blocks; a continuation ends its step
	numOrderOps
)

// orderDelays are the delays an operation can ask for; half are zero,
// so half of the bookings land on the current instant.
var orderDelays = [4]float64{0, 0, 1, 2.5}

// orderActor is one party the engine fires: a timer, a continuation or
// a process. booked is the model's view of whether its event is pending.
type orderActor struct {
	time   float64
	seq    uint64
	booked bool
	inline bool // a continuation whose condition was met when it registered
}

type orderTimer struct {
	tm *Timer
	a  *orderActor
}

type orderFuture struct {
	f       *Future
	done    bool
	waiters []*orderActor
}

type orderBarrier struct {
	b       *Barrier
	parties int
	waiters []*orderActor
}

// orderModel is the reference: pending is every booked actor, and each
// primitive keeps its own FIFO waiter list as the engine's does.
type orderModel struct {
	t         *testing.T
	e         *Engine
	in        []byte
	exhausted bool
	seq       uint64
	fired     uint64
	spawned   int
	pending   []*orderActor
	timers    []orderTimer
	futures   []*orderFuture
	barriers  []*orderBarrier
	res       *Resource
	resInUse  int
	resQueue  []*orderActor
	resNeeds  []int
	lots      []int // units held by granted acquisitions, released in LIFO order
}

func (m *orderModel) book(a *orderActor, at float64) {
	if a.booked {
		m.unbook(a)
	}
	a.time, a.booked = at, true
	m.seq++
	a.seq = m.seq
	m.pending = append(m.pending, a)
}

func (m *orderModel) unbook(a *orderActor) {
	for i, p := range m.pending {
		if p == a {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			a.booked = false
			return
		}
	}
	m.t.Fatal("model: unbooking an actor that is not pending")
}

// fire checks that a is the smallest pending (time, seq) and that the
// engine counted exactly the events fired so far.
func (m *orderModel) fire(a *orderActor) {
	var least *orderActor
	for _, p := range m.pending {
		if least == nil || p.time < least.time || p.time == least.time && p.seq < least.seq {
			least = p
		}
	}
	if least != a {
		m.t.Fatalf("fired the event booked (%v, %d); the reference order fires (%v, %d) first",
			a.time, a.seq, least.time, least.seq)
	}
	if now := m.e.Now(); now != a.time {
		m.t.Fatalf("event booked at %v fired with the clock at %v", a.time, now)
	}
	m.unbook(a)
	m.fired++
	if got := m.e.EventsDispatched(); got != m.fired {
		m.t.Fatalf("engine counts %d events dispatched, the model fired %d", got, m.fired)
	}
}

// next reads one operation and its argument, or reports the input spent.
func (m *orderModel) next() (op, arg int, ok bool) {
	if m.exhausted || len(m.in) == 0 {
		m.exhausted = true
		return 0, 0, false
	}
	b := m.in[0]
	m.in = m.in[1:]
	return int(b) % numOrderOps, int(b) / numOrderOps, true
}

// cont returns a continuation for a that checks its firing (unless it
// runs inline) and then takes a step.
func (m *orderModel) cont(a *orderActor) func() {
	return func() {
		if !a.inline {
			m.fire(a)
		}
		m.step(nil)
	}
}

// step runs up to four operations in the current event. A process (p
// non-nil) returns the blocking call it chose, or nil to end its body.
func (m *orderModel) step(p *Proc) func() {
	for range 4 {
		op, arg, ok := m.next()
		if !ok {
			return nil
		}
		d, idx := orderDelays[arg%4], arg/4
		now := m.e.Now()
		switch op {
		case opAt:
			a := &orderActor{}
			m.book(a, now+d)
			m.timers = append(m.timers, orderTimer{m.e.At(now+d, m.cont(a)), a})
		case opWait:
			a := &orderActor{}
			m.book(a, now+d)
			m.e.Wait(d, m.cont(a))
		case opSpawn:
			a := &orderActor{}
			m.book(a, now+d)
			m.spawned++
			m.e.SpawnAt(now+d, fmt.Sprint("p", m.spawned), func(p *Proc) { m.proc(p, a) })
		case opSet:
			if len(m.timers) == 0 {
				a := &orderActor{}
				m.timers = append(m.timers, orderTimer{m.e.NewTimer(m.cont(a)), a})
			}
			tm := m.timers[idx%len(m.timers)]
			m.book(tm.a, now+d)
			tm.tm.Set(now + d)
		case opCancel, opReschedule:
			if len(m.timers) == 0 {
				continue
			}
			tm := m.timers[idx%len(m.timers)]
			want := tm.a.booked
			if got := tm.tm.Pending(); got != want {
				m.t.Fatalf("Pending() = %v, model says %v", got, want)
			}
			var got bool
			if op == opCancel {
				got = tm.tm.Cancel()
				if want {
					m.unbook(tm.a)
				}
			} else {
				got = tm.tm.Reschedule(now + d)
				if want {
					m.book(tm.a, now+d)
				}
			}
			if got != want {
				m.t.Fatalf("op %d on a timer reported %v, model says %v", op, got, want)
			}
		case opThen:
			if len(m.futures) > 0 {
				a := &orderActor{}
				f := m.futures[idx%len(m.futures)]
				a.inline = m.futureWait(f, a)
				f.f.Then(m.cont(a))
			}
		case opComplete:
			if len(m.futures) > 0 {
				m.complete(m.futures[idx%len(m.futures)])
			}
		case opNewFuture:
			m.futures = append(m.futures, &orderFuture{f: m.e.NewFuture()})
		case opArrive:
			a := &orderActor{}
			b := m.barriers[idx%len(m.barriers)]
			a.inline = m.arrive(b, a)
			b.b.ArriveThen(m.cont(a))
		case opAcquire:
			a := &orderActor{}
			a.inline = m.acquire(a, 1+idx%2)
			m.res.AcquireThen(1+idx%2, m.cont(a))
		case opRelease:
			m.release()
		case opBlock:
			if p == nil {
				return nil
			}
			return m.block(p, d, idx)
		}
	}
	return nil
}

// block picks the call a process parks on and books it in the model.
// The returned call blocks the process and checks its resume.
func (m *orderModel) block(p *Proc, d float64, idx int) func() {
	self := &orderActor{}
	resumed := func() {
		if !self.inline {
			m.fire(self)
		}
	}
	switch {
	case idx%4 == 1 && len(m.futures) > 0:
		f := m.futures[idx/4%len(m.futures)]
		self.inline = m.futureWait(f, self)
		return func() { p.Do(f.f.Then); resumed() }
	case idx%4 == 2:
		b := m.barriers[idx/4%len(m.barriers)]
		self.inline = m.arrive(b, self)
		return func() { p.Do(b.b.ArriveThen); resumed() }
	case idx%4 == 3:
		n := 1 + idx/4%2
		self.inline = m.acquire(self, n)
		return func() { p.Do(func(k func()) { m.res.AcquireThen(n, k) }); resumed() }
	}
	m.book(self, m.e.Now()+d)
	return func() { p.Wait(d); resumed() }
}

// proc is a process body: check the start, then step and block until
// the input is spent.
func (m *orderModel) proc(p *Proc, a *orderActor) {
	m.fire(a)
	for {
		blocking := m.step(p)
		if blocking == nil {
			return
		}
		blocking()
	}
}

func (m *orderModel) futureWait(f *orderFuture, a *orderActor) (inline bool) {
	if f.done {
		return true
	}
	f.waiters = append(f.waiters, a)
	return false
}

func (m *orderModel) complete(f *orderFuture) {
	if f.done {
		return
	}
	f.done = true
	for _, w := range f.waiters {
		m.book(w, m.e.Now())
	}
	f.waiters = nil
	f.f.Complete()
}

// arrive counts a's arrival; the last one wakes the rest and goes on.
func (m *orderModel) arrive(b *orderBarrier, a *orderActor) (inline bool) {
	if len(b.waiters)+1 < b.parties {
		b.waiters = append(b.waiters, a)
		return false
	}
	for _, w := range b.waiters {
		m.book(w, m.e.Now())
	}
	b.waiters = b.waiters[:0]
	return true
}

func (m *orderModel) acquire(a *orderActor, n int) (inline bool) {
	if len(m.resQueue) == 0 && m.resInUse+n <= 2 {
		m.resInUse += n
		m.lots = append(m.lots, n)
		return true
	}
	m.resQueue = append(m.resQueue, a)
	m.resNeeds = append(m.resNeeds, n)
	return false
}

// release frees the last granted lot and grants queued requests in order.
func (m *orderModel) release() {
	if len(m.lots) == 0 {
		return
	}
	n := m.lots[len(m.lots)-1]
	m.lots = m.lots[:len(m.lots)-1]
	m.resInUse -= n
	for len(m.resQueue) > 0 && m.resInUse+m.resNeeds[0] <= 2 {
		m.resInUse += m.resNeeds[0]
		m.lots = append(m.lots, m.resNeeds[0])
		m.book(m.resQueue[0], m.e.Now())
		m.resQueue, m.resNeeds = m.resQueue[1:], m.resNeeds[1:]
	}
	m.res.Release(n)
}

// janitor runs after every other event: with the input spent, it
// completes the futures, fills the barriers and releases every lot, so
// every parked party fires once more and Run ends without a deadlock.
func (m *orderModel) janitor() {
	m.exhausted = true
	for _, f := range m.futures {
		m.complete(f)
	}
	for _, b := range m.barriers {
		for len(b.waiters) > 0 {
			a := &orderActor{}
			a.inline = m.arrive(b, a)
			b.b.ArriveThen(m.cont(a))
		}
	}
	for len(m.lots) > 0 {
		m.release()
	}
}

// FuzzEventOrder checks the engine's firing order against the (time,
// seq) reference under random bookings, timer churn and primitive wakes,
// and that cancelled events are neither fired nor counted.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{opAt, opAt + 13, opReschedule, opCancel + 13, opSet + 26, opWait, opBlock})
	f.Add([]byte{opNewFuture, opSpawn, opThen, opBlock + 13, opWait + 13, opComplete, opAt, opCancel})
	f.Add([]byte{opSpawn, opSpawn, opBlock + 2*13, opArrive, opBlock + 6*13, opArrive + 4*13, opAcquire + 4*13, opAcquire, opRelease, opRelease})
	f.Add([]byte{opAt, opSet, opSet + 13, opSet + 26, opReschedule + 39, opCancel, opAt + 26, opReschedule, opWait + 39, opSpawn + 39, opBlock + 39})
	f.Fuzz(checkEventOrder)
}

// checkEventOrder runs one fuzz input through the engine and the model.
func checkEventOrder(t *testing.T, in []byte) {
	if len(in) > 512 {
		in = in[:512]
	}
	e := NewEngine()
	m := &orderModel{t: t, e: e, in: in, res: e.NewResource(2)}
	for _, n := range []int{2, 3} {
		m.barriers = append(m.barriers, &orderBarrier{b: e.NewBarrier(n), parties: n})
	}
	root, janitor := &orderActor{}, &orderActor{}
	m.book(root, 0) // booked at the current instant, before Run
	e.At(0, m.cont(root))
	m.book(janitor, 1e6)
	e.At(1e6, func() { m.fire(janitor); m.janitor() })
	e.Run()
	if len(m.pending) > 0 {
		t.Fatalf("Run returned with %d events the model still has pending", len(m.pending))
	}
	if got := e.EventsDispatched(); got != m.fired {
		t.Fatalf("%d events dispatched, the model fired %d", got, m.fired)
	}
	if got := e.ProcsSpawned(); got != m.spawned {
		t.Fatalf("%d processes spawned, the model spawned %d", got, m.spawned)
	}
}
