package storage

import (
	"maps"
	"sort"
	"sync"
	"time"

	"repro/internal/des"
)

// TokenPolicy names a broker arbitration policy (§IV.D "a better I/O
// scheduling schema", extended across tree roots).
type TokenPolicy string

const (
	// PolicyPerTarget grants at most one token per storage target at a
	// time, FIFO within the whole request queue: a writer holds every
	// OST its stream touches exclusively.
	PolicyPerTarget TokenPolicy = "per-target"
	// PolicyGlobal bounds the number of concurrently granted writers to
	// MaxConcurrent, regardless of target, FIFO.
	PolicyGlobal TokenPolicy = "global"
	// PolicyDeadline is per-target exclusivity with earliest-deadline-
	// first ordering: when several writers wait for overlapping targets,
	// the one whose iteration deadline is nearest is granted first (the
	// §IV.C spare-time schedule — a root that is behind must not starve
	// behind a root that is ahead). Requests with a higher Priority are
	// ordered ahead of lower-priority ones regardless of deadline — the
	// service's priority arbitration between tenants; leaving Priority 0
	// everywhere keeps the pure-EDF behaviour.
	PolicyDeadline TokenPolicy = "deadline"
	// PolicyFairShare is per-target exclusivity ordered by accumulated
	// granted bytes per tenant, least served first (weighted by each
	// request's Weight): when several tenants contend for the same OSTs,
	// the one that has moved the least data so far goes first, so a
	// chatty tenant cannot starve a quiet one. Ties fall back to FIFO.
	PolicyFairShare TokenPolicy = "fair-share"
)

// TokenRequest asks a broker for the right to write one stream.
type TokenRequest struct {
	// Holder identifies the writer (tree-root node id). ReleaseHolder
	// frees everything a holder owns when its node dies. Use -1 for an
	// anonymous writer.
	Holder int
	// Targets are the storage targets (OSTs) the stream will touch. The
	// grant is atomic: all targets, or wait. Under PolicyGlobal the
	// request consumes one concurrency slot whatever its targets.
	Targets []int
	// Deadline orders waiters under PolicyDeadline (lower = more
	// urgent); ignored by the FIFO policies.
	Deadline float64
	// Bytes is the payload the grant covers: the fair-share currency
	// under PolicyFairShare, ignored by the other policies.
	Bytes float64
	// Tenant groups holders for fair-share arbitration: every run admitted by a cluster.Service tags its
	// requests with its tenant id. 0 is the untenanted default.
	Tenant int
	// Priority orders waiters under PolicyDeadline before the deadline
	// comparison (higher wins). 0 everywhere keeps pure EDF.
	Priority int
	// Weight scales the tenant's fair share under PolicyFairShare (a
	// weight-2 tenant may move twice the bytes of a weight-1 tenant
	// before queueing behind it). 0 means 1.
	Weight float64
}

// TokenGrant is the outcome of an acquire: the release handle, or a
// denial. What the wait cost is in the broker's ledger (BrokerStats).
type TokenGrant struct {
	// Denied reports that the request was canceled by ReleaseHolder
	// (the holder's node died while waiting): no token is held and
	// Release is a no-op.
	Denied bool

	release func()
}

// Release returns the granted tokens. It is idempotent and safe on a
// denied grant.
func (g *TokenGrant) Release() {
	if g.release != nil {
		r := g.release
		g.release = nil
		r()
	}
}

// BrokerStats is the broker's contention ledger.
type BrokerStats struct {
	// Grants counts successful acquisitions; ContendedGrants the subset
	// that had to wait behind another writer.
	Grants          int
	ContendedGrants int
	// WaitTime is the total time writers spent waiting for a token
	// (virtual seconds on the DES face, wall seconds on the real face).
	WaitTime float64
	// GrantsByHolder counts grants per holder, so a run sharing the
	// broker with other tenants can recover its own grant count.
	GrantsByHolder map[int]int
	// WaitByHolder splits WaitTime per holder (tree root).
	WaitByHolder map[int]float64
	// ContendedByHolder splits ContendedGrants per holder.
	ContendedByHolder map[int]int
}

// TokenBroker arbitrates write tokens across every tree root of a
// cluster run. One broker serves one run; all roots share it, which is
// what makes the schedule cluster-wide rather than per-backend.
//
// It has two faces, mirroring CostModel and Backend: AcquireSim hands
// the grant to a DES continuation in virtual time (the iostrat
// strategies), Acquire blocks a goroutine in wall time (the runtime
// cluster layer). A single broker instance serves one face per run.
type TokenBroker interface {
	// AcquireSim runs k with the grant once the request is granted or
	// denied (DES face), inline when it is granted at once.
	AcquireSim(req TokenRequest, k func(TokenGrant))
	// Acquire blocks the calling goroutine until the request is granted
	// or denied (real face).
	Acquire(req TokenRequest) TokenGrant
	// ReleaseHolder frees every token held by holder and cancels its
	// queued requests — the failure path when a node dies mid-write. It
	// returns the number of tokens freed plus requests canceled.
	ReleaseHolder(holder int) int
	// Outstanding returns the number of currently held target tokens
	// (or global slots) — 0 means every writer released cleanly.
	Outstanding() int
	// Stats returns a snapshot of the contention ledger.
	Stats() BrokerStats
}

// BrokerOptions parameterize NewBroker.
type BrokerOptions struct {
	// Policy selects the arbitration discipline (default PolicyPerTarget).
	Policy TokenPolicy
	// Targets is the size of the target space; request targets are taken
	// modulo it (default 1).
	Targets int
	// MaxConcurrent bounds PolicyGlobal grants (default Targets).
	MaxConcurrent int
	// Engine, when non-nil, binds the broker to a DES run: waits are
	// measured on the virtual clock and AcquireSim is usable. A nil
	// engine gives the wall-clock real face.
	Engine *des.Engine
}

// brokerWaiter is one queued request with its wake mechanism.
type brokerWaiter struct {
	req     TokenRequest
	targets []int // resolved (mod Targets, deduplicated, sorted)
	seq     int   // arrival order, the FIFO key
	enq     float64
	enqWall time.Time
	denied  bool
	fut     *des.Future   // DES face
	ch      chan struct{} // real face
}

// Broker is the in-process TokenBroker implementation.
type Broker struct {
	mu      sync.Mutex
	opts    BrokerOptions
	held    map[int]int // target → holder (the exclusive policies)
	inUse   int         // granted slots (PolicyGlobal)
	slotsBy map[int]int // holder → held slots (PolicyGlobal)
	queue   []*brokerWaiter
	seq     int
	stats   BrokerStats
	// servedByTenant is the weighted fair-share ledger: granted bytes
	// divided by request weight, per tenant (PolicyFairShare's sort key).
	// It spans every target, so "least served" is decided across the
	// whole service, not per target.
	servedByTenant map[int]float64
}

// NewBroker builds an in-process broker. See BrokerOptions for the
// defaults.
func NewBroker(opts BrokerOptions) *Broker {
	if opts.Policy == "" {
		opts.Policy = PolicyPerTarget
	}
	if opts.Targets <= 0 {
		opts.Targets = 1
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = opts.Targets
	}
	return &Broker{
		opts:           opts,
		held:           map[int]int{},
		slotsBy:        map[int]int{},
		servedByTenant: map[int]float64{},
	}
}

// NewShardedBroker returns NewBroker(opts); the shard count is ignored.
// It is kept only because the benchmark harness (benchmark/adapter.go)
// still calls it. Delete it together with those two calls.
func NewShardedBroker(opts BrokerOptions, _ int) TokenBroker {
	return NewBroker(opts)
}

// now returns the broker clock: virtual when bound to an engine.
func (b *Broker) now() float64 {
	if b.opts.Engine != nil {
		return b.opts.Engine.Now()
	}
	return 0 // real face measures with enqWall instead
}

// resolve normalizes a request's targets: modulo the target space,
// deduplicated, sorted. A nil/empty list means one unspecified slot
// (target 0 under the exclusive policies).
func (b *Broker) resolve(targets []int) []int {
	if len(targets) == 0 {
		return []int{0}
	}
	space := b.opts.Targets
	seen := map[int]bool{}
	out := make([]int, 0, len(targets))
	for _, t := range targets {
		t %= space
		if t < 0 {
			t += space
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Ints(out)
	return out
}

// grantableLocked reports whether w's tokens are all free, ignoring
// targets already spoken for by more urgent waiters (claimed).
func (b *Broker) grantableLocked(w *brokerWaiter, claimed map[int]bool) bool {
	if b.opts.Policy == PolicyGlobal {
		return b.inUse < b.opts.MaxConcurrent
	}
	for _, t := range w.targets {
		if _, busy := b.held[t]; busy || claimed[t] {
			return false
		}
	}
	return true
}

// takeLocked marks w's tokens held.
func (b *Broker) takeLocked(w *brokerWaiter) {
	if b.opts.Policy == PolicyGlobal {
		b.inUse++
		b.slotsBy[w.req.Holder]++
	} else {
		for _, t := range w.targets {
			b.held[t] = w.req.Holder
		}
	}
	b.stats.Grants++
	if b.stats.GrantsByHolder == nil {
		b.stats.GrantsByHolder = map[int]int{}
	}
	b.stats.GrantsByHolder[w.req.Holder]++
	b.servedByTenant[w.req.Tenant] += w.req.Bytes / reqWeight(w.req)
}

// reqWeight returns a request's fair-share weight (default 1).
func reqWeight(req TokenRequest) float64 {
	if req.Weight > 0 {
		return req.Weight
	}
	return 1
}

// order returns the queue scan order under the policy: arrival order
// for the FIFO policies, priority then earliest deadline first (arrival
// as the tie break) for PolicyDeadline, and least-served tenant first
// for PolicyFairShare.
func (b *Broker) order() []*brokerWaiter {
	scan := append([]*brokerWaiter(nil), b.queue...)
	switch b.opts.Policy {
	case PolicyDeadline:
		sort.SliceStable(scan, func(i, j int) bool {
			if scan[i].req.Priority != scan[j].req.Priority {
				return scan[i].req.Priority > scan[j].req.Priority
			}
			if scan[i].req.Deadline != scan[j].req.Deadline {
				return scan[i].req.Deadline < scan[j].req.Deadline
			}
			return scan[i].seq < scan[j].seq
		})
	case PolicyFairShare:
		sort.SliceStable(scan, func(i, j int) bool {
			si := b.servedByTenant[scan[i].req.Tenant]
			sj := b.servedByTenant[scan[j].req.Tenant]
			if si != sj {
				return si < sj
			}
			return scan[i].seq < scan[j].seq
		})
	}
	return scan
}

// dispatchLocked grants every queued request that can run, in policy
// order. An ungranted request reserves its targets so later arrivals
// cannot starve it (work is left on the table instead).
func (b *Broker) dispatchLocked() {
	claimed := map[int]bool{}
	var rest []*brokerWaiter
	granted := map[*brokerWaiter]bool{}
	for _, w := range b.order() {
		if b.grantableLocked(w, claimed) {
			b.takeLocked(w)
			granted[w] = true
			b.wakeLocked(w, false)
			continue
		}
		for _, t := range w.targets {
			claimed[t] = true
		}
	}
	for _, w := range b.queue {
		if !granted[w] {
			rest = append(rest, w)
		}
	}
	b.queue = rest
}

// wakeLocked completes a waiter's grant (or denial) and accounts the
// wait it paid.
func (b *Broker) wakeLocked(w *brokerWaiter, denied bool) {
	w.denied = denied
	var wait float64
	if b.opts.Engine != nil {
		wait = b.now() - w.enq
	} else {
		wait = time.Since(w.enqWall).Seconds()
	}
	if !denied {
		holder := w.req.Holder
		b.stats.ContendedGrants++
		b.stats.WaitTime += wait
		if b.stats.WaitByHolder == nil {
			b.stats.WaitByHolder = map[int]float64{}
		}
		b.stats.WaitByHolder[holder] += wait
		if b.stats.ContendedByHolder == nil {
			b.stats.ContendedByHolder = map[int]int{}
		}
		b.stats.ContendedByHolder[holder]++
	}
	if w.fut != nil {
		w.fut.Complete()
	}
	if w.ch != nil {
		close(w.ch)
	}
}

// releaseFor builds the release closure of a granted request.
func (b *Broker) releaseFor(w *brokerWaiter) func() {
	return func() {
		b.mu.Lock()
		if b.opts.Policy == PolicyGlobal {
			// A holder whose slots were already reclaimed by
			// ReleaseHolder must not free someone else's slot.
			if b.slotsBy[w.req.Holder] > 0 {
				b.slotsBy[w.req.Holder]--
				if b.inUse > 0 {
					b.inUse--
				}
			}
		} else {
			for _, t := range w.targets {
				if b.held[t] == w.req.Holder {
					delete(b.held, t)
				}
			}
		}
		b.dispatchLocked()
		b.mu.Unlock()
	}
}

// enqueue registers a request; it reports whether the grant was
// immediate (no waiting needed).
func (b *Broker) enqueue(w *brokerWaiter) (immediate bool) {
	w.targets = b.resolve(w.req.Targets)
	b.seq++
	w.seq = b.seq
	w.enq = b.now()
	w.enqWall = time.Now()
	// An immediate grant must still respect queued waiters: overtaking
	// the queue would starve wide (multi-target) requests forever.
	claimed := map[int]bool{}
	for _, q := range b.order() {
		for _, t := range q.targets {
			claimed[t] = true
		}
	}
	if (b.opts.Policy == PolicyGlobal && len(b.queue) == 0 && b.grantableLocked(w, nil)) ||
		(b.opts.Policy != PolicyGlobal && b.grantableLocked(w, claimed)) {
		b.takeLocked(w)
		return true
	}
	b.queue = append(b.queue, w)
	return false
}

// AcquireSim implements TokenBroker (DES face): the wait parks k on a
// future, so contention costs virtual time exactly where the modeled
// dedicated core would stall.
func (b *Broker) AcquireSim(req TokenRequest, k func(TokenGrant)) {
	if b.opts.Engine == nil {
		panic("storage: AcquireSim on a broker with no engine")
	}
	b.mu.Lock()
	w := &brokerWaiter{req: req}
	if b.enqueue(w) {
		g := TokenGrant{release: b.releaseFor(w)}
		b.mu.Unlock()
		k(g)
		return
	}
	w.fut = b.opts.Engine.NewFuture()
	b.mu.Unlock()
	w.fut.Then(func() { k(b.grantFor(w)) })
}

// Acquire implements TokenBroker (real face): the wait blocks the
// calling goroutine.
func (b *Broker) Acquire(req TokenRequest) TokenGrant {
	b.mu.Lock()
	w := &brokerWaiter{req: req, ch: make(chan struct{})}
	if b.enqueue(w) {
		g := TokenGrant{release: b.releaseFor(w)}
		b.mu.Unlock()
		return g
	}
	b.mu.Unlock()
	<-w.ch
	return b.grantFor(w)
}

// grantFor is a woken waiter's outcome. wakeLocked set w.denied before
// completing the future or closing the channel the waiter blocked on,
// so reading it needs no lock.
func (b *Broker) grantFor(w *brokerWaiter) TokenGrant {
	if w.denied {
		return TokenGrant{Denied: true}
	}
	return TokenGrant{release: b.releaseFor(w)}
}

// ReleaseHolder implements TokenBroker: frees held tokens and cancels
// queued requests of a dead holder, then re-dispatches — the token a
// dead root held must not stay stranded for the rest of the run.
func (b *Broker) ReleaseHolder(holder int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	freed := 0
	if b.opts.Policy == PolicyGlobal {
		for b.slotsBy[holder] > 0 && b.inUse > 0 {
			b.slotsBy[holder]--
			b.inUse--
			freed++
		}
		delete(b.slotsBy, holder)
	} else {
		for t, h := range b.held {
			if h == holder {
				delete(b.held, t)
				freed++
			}
		}
	}
	var rest []*brokerWaiter
	for _, w := range b.queue {
		if w.req.Holder == holder {
			freed++
			b.wakeLocked(w, true)
			continue
		}
		rest = append(rest, w)
	}
	b.queue = rest
	b.dispatchLocked()
	return freed
}

// Outstanding implements TokenBroker.
func (b *Broker) Outstanding() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opts.Policy == PolicyGlobal {
		return b.inUse
	}
	return len(b.held)
}

// QueueLen returns the number of waiting requests (diagnostics).
func (b *Broker) QueueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Stats implements TokenBroker. Every map is the caller's own copy, so
// a snapshot can be ranged over while the broker keeps accounting.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.GrantsByHolder = maps.Clone(s.GrantsByHolder)
	s.WaitByHolder = maps.Clone(s.WaitByHolder)
	s.ContendedByHolder = maps.Clone(s.ContendedByHolder)
	return s
}
