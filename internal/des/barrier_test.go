package des

// The continuation forms no model uses, kept for the engine's own tests
// of Proc.Do and of the wake-up order: a reusable barrier and
// AcquirePost's func form.

// AcquireThen is AcquirePost's func form: k runs once n units are taken.
func (r *Resource) AcquireThen(n int, k func()) { r.acquire(n, cont{fn: k}) }

// Barrier is a reusable synchronization barrier for a fixed number of
// parties.
type Barrier struct {
	eng     *Engine
	parties int
	arrived int
	waiters []cont // sized to parties-1 once, reused every generation
}

// NewBarrier creates a barrier for the given number of parties (> 0).
func (e *Engine) NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("des: barrier parties must be positive")
	}
	return &Barrier{eng: e, parties: parties, waiters: make([]cont, 0, parties-1)}
}

// ArriveThen counts one arrival and runs k once all parties have
// arrived: inline for the last arrival, which wakes the earlier ones
// and resets the barrier for the next generation.
func (b *Barrier) ArriveThen(k func()) { b.arrive(cont{fn: k}) }

// ArrivePost is ArriveThen's kind form: actor's handler of kind k runs.
func (b *Barrier) ArrivePost(k Kind, actor int32) { b.arrive(cont{kind: k, actor: actor}) }

func (b *Barrier) arrive(k cont) {
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
	b.eng.run(k)
}
