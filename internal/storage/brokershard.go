package storage

import (
	"sync"
	"time"

	"repro/internal/des"
)

// ShardedBroker is a TokenBroker that partitions the target space
// across independent child brokers, so writers contending for disjoint
// targets never touch the same mutex. Target t belongs to shard
// t mod K; a request whose targets all land in one shard routes
// straight to it, and a request spanning shards acquires them in
// ascending shard order — every spanning writer uses the same order,
// so cross-shard acquisition cannot deadlock.
//
// The cluster workload is the single-shard case almost always: each
// tree root claims a small contiguous target window, and distinct
// windows spread across shards, so K roots writing concurrently hit K
// different locks instead of serializing on one.
//
// PolicyGlobal counts concurrent writers, not targets, so it cannot be
// partitioned without changing its meaning; NewShardedBroker falls
// back to a single Broker for it.
type ShardedBroker struct {
	opts   BrokerOptions
	shards []*Broker

	mu    sync.Mutex
	stats BrokerStats // request-level ledger (per-target detail lives in the shards)
	// deaths counts ReleaseHolder calls per holder. A spanning Acquire
	// snapshots its holder's count up front and re-checks it after every
	// shard grant: a bump means ReleaseHolder ran mid-acquisition, and
	// the shards it swept could not see grants taken after the sweep —
	// the acquisition rolls every shard back and reports Denied, so a
	// holder that dies between spanning acquisition and rollback cannot
	// strand tokens on shards the sweep already passed.
	deaths map[int]int

	// testBetweenShards, when set (tests only), runs between consecutive
	// shard acquisitions of a spanning request, so a test can schedule a
	// ReleaseHolder exactly inside the window the epoch check closes.
	testBetweenShards func(nextShard int)
}

// NewShardedBroker builds a broker with the given shard count. Counts
// below two, and PolicyGlobal (whose concurrency bound is inherently
// global), return the plain single-lock Broker.
func NewShardedBroker(opts BrokerOptions, shards int) TokenBroker {
	if opts.Policy == "" {
		opts.Policy = PolicyPerTarget
	}
	if opts.Targets <= 0 {
		opts.Targets = 1
	}
	if shards > opts.Targets {
		shards = opts.Targets
	}
	if shards < 2 || opts.Policy == PolicyGlobal {
		return NewBroker(opts)
	}
	s := &ShardedBroker{opts: opts, shards: make([]*Broker, shards), deaths: map[int]int{}}
	for i := range s.shards {
		// Each child keeps the full target space for resolution, so the
		// parent can hand it already-resolved target ids unchanged.
		s.shards[i] = NewBroker(opts)
	}
	return s
}

// Shards returns the shard count (diagnostics).
func (s *ShardedBroker) Shards() int { return len(s.shards) }

// shardPart is one shard's slice of a spanning request.
type shardPart struct {
	shard   int
	targets []int
}

// partition resolves a request's targets and splits them by owning
// shard, ascending — the one acquisition order every caller uses.
func (s *ShardedBroker) partition(targets []int) []shardPart {
	resolved := resolveTargets(targets, s.opts.Targets)
	parts := make([]shardPart, 0, 1)
	for _, t := range resolved { // resolved is sorted, so parts group naturally
		sh := t % len(s.shards)
		found := false
		for i := range parts {
			if parts[i].shard == sh {
				parts[i].targets = append(parts[i].targets, t)
				found = true
				break
			}
		}
		if !found {
			parts = append(parts, shardPart{shard: sh, targets: []int{t}})
		}
	}
	// Ascending shard order; the per-shard target lists stay sorted.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j-1].shard > parts[j].shard; j-- {
			parts[j-1], parts[j] = parts[j], parts[j-1]
		}
	}
	return parts
}

// deathEpoch returns the holder's ReleaseHolder count.
func (s *ShardedBroker) deathEpoch(holder int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deaths[holder]
}

// account records one successful request-level grant.
func (s *ShardedBroker) account(req TokenRequest, wait float64, contended bool) {
	holder := req.Holder
	s.mu.Lock()
	s.stats.Grants++
	if s.stats.GrantsByHolder == nil {
		s.stats.GrantsByHolder = map[int]int{}
	}
	s.stats.GrantsByHolder[holder]++
	if s.stats.BytesByTenant == nil {
		s.stats.BytesByTenant = map[int]float64{}
	}
	s.stats.BytesByTenant[req.Tenant] += req.Bytes
	if contended {
		s.stats.ContendedGrants++
		s.stats.WaitTime += wait
		if s.stats.WaitByHolder == nil {
			s.stats.WaitByHolder = map[int]float64{}
		}
		s.stats.WaitByHolder[holder] += wait
		if s.stats.ContendedByHolder == nil {
			s.stats.ContendedByHolder = map[int]int{}
		}
		s.stats.ContendedByHolder[holder]++
	}
	s.mu.Unlock()
}

// releaseAll releases every shard grant acquired so far.
func releaseAll(grants []TokenGrant) {
	for i := range grants {
		grants[i].Release()
	}
}

// Acquire implements TokenBroker (real face): shard grants are taken
// in ascending shard order; a denial anywhere (the holder died while
// queued) rolls back the shards already held, and a ReleaseHolder that
// lands mid-acquisition (death-epoch bump) rolls back likewise — see
// the deaths field.
func (s *ShardedBroker) Acquire(req TokenRequest) TokenGrant {
	start := time.Now()
	epoch := s.deathEpoch(req.Holder)
	parts := s.partition(req.Targets)
	grants := make([]TokenGrant, 0, len(parts))
	contended := false
	for i, p := range parts {
		if i > 0 && s.testBetweenShards != nil {
			s.testBetweenShards(p.shard)
		}
		sub := req
		sub.Targets = p.targets
		g := s.shards[p.shard].Acquire(sub)
		if g.Denied || s.deathEpoch(req.Holder) != epoch {
			grants = append(grants, g)
			releaseAll(grants)
			return TokenGrant{Denied: true, Wait: time.Since(start).Seconds()}
		}
		contended = contended || g.Contended
		grants = append(grants, g)
	}
	wait := time.Since(start).Seconds()
	s.account(req, wait, contended)
	return TokenGrant{
		Wait:      wait,
		Contended: contended,
		release:   func() { releaseAll(grants) },
	}
}

// AcquireSim implements TokenBroker (DES face); see Acquire.
func (s *ShardedBroker) AcquireSim(p *des.Proc, req TokenRequest) TokenGrant {
	if s.opts.Engine == nil {
		panic("storage: AcquireSim on a broker with no engine")
	}
	start := s.opts.Engine.Now()
	epoch := s.deathEpoch(req.Holder)
	parts := s.partition(req.Targets)
	grants := make([]TokenGrant, 0, len(parts))
	contended := false
	for _, part := range parts {
		sub := req
		sub.Targets = part.targets
		g := s.shards[part.shard].AcquireSim(p, sub)
		if g.Denied || s.deathEpoch(req.Holder) != epoch {
			grants = append(grants, g)
			releaseAll(grants)
			return TokenGrant{Denied: true, Wait: s.opts.Engine.Now() - start}
		}
		contended = contended || g.Contended
		grants = append(grants, g)
	}
	wait := s.opts.Engine.Now() - start
	s.account(req, wait, contended)
	return TokenGrant{
		Wait:      wait,
		Contended: contended,
		release:   func() { releaseAll(grants) },
	}
}

// ReleaseHolder implements TokenBroker: the holder's death epoch is
// bumped first, then EVERY child shard — not just the ones with held
// targets — frees the dead holder's tokens and cancels its queued
// requests. A spanning request of the holder that is mid-acquisition
// either sees its next shard deny it, or observes the epoch bump right
// after a grant the sweep could not see; both paths roll back every
// shard already held.
func (s *ShardedBroker) ReleaseHolder(holder int) int {
	s.mu.Lock()
	s.deaths[holder]++
	s.mu.Unlock()
	freed := 0
	for _, sh := range s.shards {
		freed += sh.ReleaseHolder(holder)
	}
	return freed
}

// Outstanding implements TokenBroker: held tokens across all shards.
func (s *ShardedBroker) Outstanding() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Outstanding()
	}
	return n
}

// Stats implements TokenBroker. Request-level counters (grants, waits,
// contention) come from the parent ledger so a spanning request counts
// once; per-target detail, cancellations and queue depth come from the
// shards (MaxQueueLen is the deepest single shard, since the shards
// queue independently).
func (s *ShardedBroker) Stats() BrokerStats {
	s.mu.Lock()
	out := s.stats.clone()
	s.mu.Unlock()
	for _, sh := range s.shards {
		bs := sh.Stats()
		for t, n := range bs.GrantsByTarget {
			if out.GrantsByTarget == nil {
				out.GrantsByTarget = map[int]int{}
			}
			out.GrantsByTarget[t] += n
		}
		out.CanceledRequests += bs.CanceledRequests
		out.HolderReleases += bs.HolderReleases
		if bs.MaxQueueLen > out.MaxQueueLen {
			out.MaxQueueLen = bs.MaxQueueLen
		}
	}
	return out
}
