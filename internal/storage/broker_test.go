package storage

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/des"
)

// acquireSim is AcquireSim from a process body: it returns the grant
// once the continuation has run.
func acquireSim(p *des.Proc, b *Broker, req TokenRequest) TokenGrant {
	var g TokenGrant
	p.Do(func(k func()) {
		b.AcquireSim(req, func(got TokenGrant) {
			g = got
			k()
		})
	})
	return g
}

func TestBrokerPerTargetSerializes(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 4, Engine: eng})
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		eng.Spawn("w", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{Holder: id, Targets: []int{1}})
			p.Wait(10)
			order = append(order, id)
			g.Release()
		})
	}
	end := eng.Run()
	if end != 30 {
		t.Fatalf("three exclusive 10s holds should end at 30, got %v", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("FIFO order violated: %v", order)
	}
	if b.Outstanding() != 0 {
		t.Fatalf("%d tokens still held after run", b.Outstanding())
	}
	s := b.Stats()
	if s.Grants != 3 || s.ContendedGrants != 2 {
		t.Fatalf("grants=%d contended=%d, want 3/2", s.Grants, s.ContendedGrants)
	}
	if s.WaitTime != 10+20 {
		t.Fatalf("wait time %v, want 30", s.WaitTime)
	}
}

func TestBrokerDistinctTargetsOverlap(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 4, Engine: eng})
	for i := 0; i < 4; i++ {
		target := i
		eng.Spawn("w", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{Holder: target, Targets: []int{target}})
			p.Wait(10)
			g.Release()
		})
	}
	if end := eng.Run(); end != 10 {
		t.Fatalf("disjoint targets should run in parallel (end 10), got %v", end)
	}
}

func TestBrokerDeadlineOrdersWaiters(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyDeadline, Targets: 2, Engine: eng})
	var order []int
	// Holder 0 takes the token at t=0; holders 1..3 queue at t=1 in
	// arrival order 1,2,3 but with deadlines 30,10,20.
	deadlines := map[int]float64{1: 30, 2: 10, 3: 20}
	eng.Spawn("first", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 0, Targets: []int{0}, Deadline: 5})
		p.Wait(10)
		order = append(order, 0)
		g.Release()
	})
	for i := 1; i <= 3; i++ {
		id := i
		eng.SpawnAt(1, "late", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{Holder: id, Targets: []int{0}, Deadline: deadlines[id]})
			p.Wait(1)
			order = append(order, id)
			g.Release()
		})
	}
	eng.Run()
	want := []int{0, 2, 3, 1} // earliest deadline first among the waiters
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestBrokerWindowGrantIsAtomic(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyDeadline, Targets: 4, Engine: eng})
	active := map[int]int{}
	overlapped := false
	writer := func(holder int, targets []int, start float64) {
		eng.SpawnAt(start, "w", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{Holder: holder, Targets: targets})
			for _, tg := range targets {
				active[tg]++
				if active[tg] > 1 {
					overlapped = true
				}
			}
			p.Wait(10)
			for _, tg := range targets {
				active[tg]--
			}
			g.Release()
		})
	}
	writer(0, []int{0, 1, 2}, 0)
	writer(1, []int{2, 3}, 1)
	writer(2, []int{1, 3}, 2)
	eng.Run()
	if overlapped {
		t.Fatal("two writers held the same target at once")
	}
	if b.Outstanding() != 0 {
		t.Fatalf("%d tokens leaked", b.Outstanding())
	}
}

// A wide request parked at the head of the queue reserves its targets:
// later narrow arrivals must not starve it forever.
func TestBrokerWideRequestNotStarved(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 2, Engine: eng})
	var wideGranted float64
	eng.Spawn("narrow0", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 0, Targets: []int{0}})
		p.Wait(10)
		g.Release()
	})
	eng.SpawnAt(1, "wide", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 1, Targets: []int{0, 1}})
		wideGranted = p.Now()
		p.Wait(10)
		g.Release()
	})
	// A stream of narrow requests on target 1 that could starve the
	// wide one if they could grab target 1 out from under it.
	for i := 0; i < 5; i++ {
		at := float64(2 + i)
		eng.SpawnAt(at, "narrow1", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{Holder: 2, Targets: []int{1}})
			p.Wait(10)
			g.Release()
		})
	}
	eng.Run()
	if wideGranted != 10 {
		t.Fatalf("wide request granted at %v, want 10 (right after the first narrow hold)", wideGranted)
	}
}

func TestBrokerGlobalBoundsConcurrency(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyGlobal, Targets: 8, MaxConcurrent: 2, Engine: eng})
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		id := i
		eng.Spawn("w", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{Holder: id, Targets: []int{id}})
			active++
			if active > peak {
				peak = active
			}
			p.Wait(10)
			active--
			g.Release()
		})
	}
	if end := eng.Run(); end != 30 {
		t.Fatalf("6 writers / 2 slots / 10s each should end at 30, got %v", end)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
}

func TestBrokerReleaseHolderFreesAndCancels(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 2, Engine: eng})
	var survivorGranted float64
	deniedSeen := false
	reclaimed := 0
	eng.Spawn("doomed", func(p *des.Proc) {
		acquireSim(p, b, TokenRequest{Holder: 7, Targets: []int{0}})
		// Holder 7 "dies" at t=5 without releasing; ReleaseHolder must
		// reclaim the token.
		p.Wait(100)
	})
	eng.SpawnAt(1, "doomed-queued", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 7, Targets: []int{0}})
		if g.Denied {
			deniedSeen = true
		}
	})
	eng.SpawnAt(2, "survivor", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 1, Targets: []int{0}})
		survivorGranted = p.Now()
		g.Release()
	})
	eng.At(5, func() { reclaimed = b.ReleaseHolder(7) })
	eng.Run()
	if !deniedSeen {
		t.Fatal("queued request of the dead holder was not denied")
	}
	if survivorGranted != 5 {
		t.Fatalf("survivor granted at %v, want 5 (the moment the dead holder's token was reclaimed)", survivorGranted)
	}
	if reclaimed != 2 {
		t.Fatalf("ReleaseHolder reclaimed %d, want 2 (1 held token freed + 1 queued request canceled)", reclaimed)
	}
	if b.Outstanding() != 0 {
		t.Fatalf("%d tokens leaked", b.Outstanding())
	}
}

// TestBrokerRealFaceExcludesConcurrentWriters checks per-target mutual
// exclusion on the real face: at most one holder is inside the critical
// section per target at any instant, whether each writer acquires once
// or many writers hammer every target for many rounds.
func TestBrokerRealFaceExcludesConcurrentWriters(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		policy                   TokenPolicy
		targets, writers, rounds int // writers per target
	}{
		{"deadline", PolicyDeadline, 3, 8, 1},
		{"per-target-contended", PolicyPerTarget, 8, 4, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBroker(BrokerOptions{Policy: tc.policy, Targets: tc.targets})
			inside := make([]atomic.Int32, tc.targets)
			var wg sync.WaitGroup
			for tg := 0; tg < tc.targets; tg++ {
				for w := 0; w < tc.writers; w++ {
					wg.Add(1)
					go func(tg, holder int) {
						defer wg.Done()
						for i := 0; i < tc.rounds; i++ {
							g := b.Acquire(TokenRequest{Holder: holder, Targets: []int{tg}, Deadline: float64(holder)})
							if g.Denied {
								t.Errorf("unexpected denial for target %d", tg)
								return
							}
							if n := inside[tg].Add(1); n != 1 {
								t.Errorf("target %d: %d concurrent holders", tg, n)
							}
							inside[tg].Add(-1)
							g.Release()
						}
					}(tg, tg*tc.writers+w)
				}
			}
			wg.Wait()
			if b.Outstanding() != 0 {
				t.Fatalf("%d tokens leaked", b.Outstanding())
			}
			if want := tc.targets * tc.writers * tc.rounds; b.Stats().Grants != want {
				t.Fatalf("grants %d, want %d", b.Stats().Grants, want)
			}
		})
	}
}

// TestBrokerStatsSnapshot: every map Stats returns is the caller's own.
// Several holders hammer Acquire — contending on one target so the wait
// and contention ledgers fill too — while another goroutine ranges over
// each map of fresh snapshots; under -race a map handed out by
// reference is a detected race with the broker's accounting. The
// scribble check catches the same aliasing without the detector.
func TestBrokerStatsSnapshot(t *testing.T) {
	const holders, rounds = 6, 300
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 8})
	var wg sync.WaitGroup
	for h := 0; h < holders; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g := b.Acquire(TokenRequest{Holder: h, Targets: []int{0, 1 + h}})
				g.Release()
			}
		}(h)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := b.Stats()
			for range st.GrantsByHolder {
				seen++
			}
			for range st.WaitByHolder {
				seen++
			}
			for range st.ContendedByHolder {
				seen++
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	st := b.Stats()
	if st.Grants != holders*rounds || st.GrantsByHolder[0] != rounds {
		t.Fatalf("ledger off: %+v", st)
	}
	st.GrantsByHolder[0] = -1
	if st.ContendedGrants > 0 { // the wait ledgers exist once anyone queued
		st.WaitByHolder[0], st.ContendedByHolder[0] = -1, -1
	}
	again := b.Stats()
	if again.GrantsByHolder[0] < 0 || again.WaitByHolder[0] < 0 || again.ContendedByHolder[0] < 0 {
		t.Fatalf("Stats handed out the broker's own maps: %+v", again)
	}
}

func TestBrokerReleaseIdempotent(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 1, Engine: eng})
	eng.Spawn("w", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 0, Targets: []int{0}})
		g.Release()
		g.Release() // second release must be a no-op
	})
	eng.Run()
	if b.Outstanding() != 0 {
		t.Fatal("token leaked")
	}
}

// Fair-share ordering: the waiter whose tenant has consumed the least
// weight-normalized bytes is granted first, regardless of arrival order
// or of the target the bytes went to.
func TestBrokerFairShareOrdersByServedBytes(t *testing.T) {
	type hold struct {
		at                  float64
		tenant, holder, tgt int
		bytes, weight, dur  float64
	}
	for _, tc := range []struct {
		name    string
		targets int
		holds   []hold
		want    []int // tenants in grant order
	}{
		// Tenant 2's small Weight inflates its normalized consumption,
		// pushing it behind tenant 1 even though it moved fewer raw
		// bytes. Warm-up: tenant 1 moves 1000 bytes at weight 1, tenant 2
		// 400 at weight 0.25 (normalized 1600), holding the token until
		// t=10 so a queue forms. Waiters queue in arrival order 1, 2, 3;
		// fair share grants tenant 3 (served 0), then 1, then 2.
		{"weighted", 1, []hold{
			{0, 1, 11, 0, 1000, 0, 1},
			{1, 2, 12, 0, 400, 0.25, 9},
			{2, 1, 11, 0, 10, 0, 1},
			{3, 2, 12, 0, 10, 0.25, 1},
			{4, 3, 13, 0, 10, 0, 1},
		}, []int{1, 2, 3, 1, 2}},
		// Tenant 1 is served heavily on target 0; then tenants 1 and 2
		// queue on target 1 behind tenant 3's hold, 1 first. The ledger
		// is service-wide, so tenant 2 goes first; a per-target ledger
		// would see neither tenant served on target 1 and grant FIFO.
		{"cross-target", 2, []hold{
			{0, 1, 11, 0, 1000, 0, 1},
			{1, 3, 13, 1, 0, 0, 9},
			{2, 1, 11, 1, 10, 0, 1},
			{3, 2, 12, 1, 10, 0, 1},
		}, []int{1, 3, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := des.NewEngine()
			b := NewBroker(BrokerOptions{Policy: PolicyFairShare, Targets: tc.targets, Engine: eng})
			var order []int
			wantByHolder := map[int]int{}
			for _, h := range tc.holds {
				h := h
				wantByHolder[h.holder]++
				eng.SpawnAt(h.at, "w", func(p *des.Proc) {
					g := acquireSim(p, b, TokenRequest{
						Holder: h.holder, Tenant: h.tenant, Targets: []int{h.tgt},
						Bytes: h.bytes, Weight: h.weight,
					})
					order = append(order, h.tenant)
					p.Wait(h.dur)
					g.Release()
				})
			}
			eng.Run()
			if !slices.Equal(order, tc.want) {
				t.Fatalf("grant order %v, want %v", order, tc.want)
			}
			if st := b.Stats(); !maps.Equal(st.GrantsByHolder, wantByHolder) {
				t.Fatalf("GrantsByHolder = %v, want %v", st.GrantsByHolder, wantByHolder)
			}
		})
	}
}

// Priority outranks deadline under PolicyDeadline: a high-priority
// tenant's waiter is granted before lower-priority waiters with
// earlier deadlines.
func TestBrokerDeadlinePriorityFirst(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyDeadline, Targets: 1, Engine: eng})
	var order []int
	eng.Spawn("first", func(p *des.Proc) {
		g := acquireSim(p, b, TokenRequest{Holder: 0, Targets: []int{0}, Deadline: 5})
		p.Wait(10)
		order = append(order, 0)
		g.Release()
	})
	// Holder 1 has the worst deadline but Priority 1; holders 2 and 3
	// keep the default priority and sort by deadline among themselves.
	specs := []struct {
		holder, prio int
		deadline     float64
	}{
		{1, 1, 30}, {2, 0, 10}, {3, 0, 20},
	}
	for _, s := range specs {
		s := s
		eng.SpawnAt(1, "late", func(p *des.Proc) {
			g := acquireSim(p, b, TokenRequest{
				Holder: s.holder, Priority: s.prio, Targets: []int{0}, Deadline: s.deadline,
			})
			p.Wait(1)
			order = append(order, s.holder)
			g.Release()
		})
	}
	eng.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}
