package storage

import (
	"sync"
	"testing"

	"repro/internal/des"
)

func TestBrokerPerTargetSerializes(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 4, Engine: eng})
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		eng.Spawn("w", func(p *des.Proc) {
			g := b.AcquireSim(p, TokenRequest{Holder: id, Targets: []int{1}})
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
	if s.GrantsByTarget[1] != 3 {
		t.Fatalf("grants by target: %v", s.GrantsByTarget)
	}
}

func TestBrokerDistinctTargetsOverlap(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 4, Engine: eng})
	for i := 0; i < 4; i++ {
		target := i
		eng.Spawn("w", func(p *des.Proc) {
			g := b.AcquireSim(p, TokenRequest{Holder: target, Targets: []int{target}})
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
		g := b.AcquireSim(p, TokenRequest{Holder: 0, Targets: []int{0}, Deadline: 5})
		p.Wait(10)
		order = append(order, 0)
		g.Release()
	})
	for i := 1; i <= 3; i++ {
		id := i
		eng.SpawnAt(1, "late", func(p *des.Proc) {
			g := b.AcquireSim(p, TokenRequest{Holder: id, Targets: []int{0}, Deadline: deadlines[id]})
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
			g := b.AcquireSim(p, TokenRequest{Holder: holder, Targets: targets})
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
		g := b.AcquireSim(p, TokenRequest{Holder: 0, Targets: []int{0}})
		p.Wait(10)
		g.Release()
	})
	eng.SpawnAt(1, "wide", func(p *des.Proc) {
		g := b.AcquireSim(p, TokenRequest{Holder: 1, Targets: []int{0, 1}})
		wideGranted = p.Now()
		p.Wait(10)
		g.Release()
	})
	// A stream of narrow requests on target 1 that could starve the
	// wide one if they could grab target 1 out from under it.
	for i := 0; i < 5; i++ {
		at := float64(2 + i)
		eng.SpawnAt(at, "narrow1", func(p *des.Proc) {
			g := b.AcquireSim(p, TokenRequest{Holder: 2, Targets: []int{1}})
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
			g := b.AcquireSim(p, TokenRequest{Holder: id, Targets: []int{id}})
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
	eng.Spawn("doomed", func(p *des.Proc) {
		b.AcquireSim(p, TokenRequest{Holder: 7, Targets: []int{0}})
		// Holder 7 "dies" at t=5 without releasing; ReleaseHolder must
		// reclaim the token.
		p.Wait(100)
	})
	eng.SpawnAt(1, "doomed-queued", func(p *des.Proc) {
		g := b.AcquireSim(p, TokenRequest{Holder: 7, Targets: []int{0}})
		if g.Denied {
			deniedSeen = true
		}
	})
	eng.SpawnAt(2, "survivor", func(p *des.Proc) {
		g := b.AcquireSim(p, TokenRequest{Holder: 1, Targets: []int{0}})
		survivorGranted = p.Now()
		g.Release()
	})
	eng.At(5, func() { b.ReleaseHolder(7) })
	eng.Run()
	if !deniedSeen {
		t.Fatal("queued request of the dead holder was not denied")
	}
	if survivorGranted != 5 {
		t.Fatalf("survivor granted at %v, want 5 (the moment the dead holder's token was reclaimed)", survivorGranted)
	}
	s := b.Stats()
	if s.HolderReleases != 1 || s.CanceledRequests != 1 {
		t.Fatalf("holder releases %d / canceled %d, want 1/1", s.HolderReleases, s.CanceledRequests)
	}
	if b.Outstanding() != 0 {
		t.Fatalf("%d tokens leaked", b.Outstanding())
	}
}

func TestBrokerRealFaceExcludesConcurrentWriters(t *testing.T) {
	b := NewBroker(BrokerOptions{Policy: PolicyDeadline, Targets: 3})
	var mu sync.Mutex
	active := map[int]int{}
	overlap := false
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			target := id % 3
			g := b.Acquire(TokenRequest{Holder: id, Targets: []int{target}, Deadline: float64(id)})
			mu.Lock()
			active[target]++
			if active[target] > 1 {
				overlap = true
			}
			mu.Unlock()
			mu.Lock()
			active[target]--
			mu.Unlock()
			g.Release()
		}(i)
	}
	wg.Wait()
	if overlap {
		t.Fatal("real face granted the same target twice concurrently")
	}
	if b.Outstanding() != 0 {
		t.Fatalf("%d tokens leaked", b.Outstanding())
	}
	if s := b.Stats(); s.Grants != 24 {
		t.Fatalf("grants %d, want 24", s.Grants)
	}
}

func TestBrokerReleaseIdempotent(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyPerTarget, Targets: 1, Engine: eng})
	eng.Spawn("w", func(p *des.Proc) {
		g := b.AcquireSim(p, TokenRequest{Holder: 0, Targets: []int{0}})
		g.Release()
		g.Release() // second release must be a no-op
	})
	eng.Run()
	if b.Outstanding() != 0 {
		t.Fatal("token leaked")
	}
}

func TestAccountingAddBroker(t *testing.T) {
	var acc Accounting
	acc.AddBroker(BrokerStats{Grants: 3, WaitTime: 1.5, GrantsByTarget: map[int]int{2: 3}})
	acc.AddBroker(BrokerStats{Grants: 1, WaitTime: 0.5, GrantsByTarget: map[int]int{2: 1, 4: 1}})
	if acc.TokenGrants != 4 || acc.TokenWaitTime != 2.0 {
		t.Fatalf("merged grants=%d wait=%v", acc.TokenGrants, acc.TokenWaitTime)
	}
	if acc.GrantsByTarget[2] != 4 || acc.GrantsByTarget[4] != 1 {
		t.Fatalf("merged by-target: %v", acc.GrantsByTarget)
	}
}

// Fair-share ordering: the waiter whose tenant has consumed the least
// weight-normalized bytes is granted first, regardless of arrival
// order. Tenant 2's small Weight inflates its normalized consumption,
// pushing it behind tenant 1 even though it moved fewer raw bytes.
func TestBrokerFairShareOrdersByServedBytes(t *testing.T) {
	eng := des.NewEngine()
	b := NewBroker(BrokerOptions{Policy: PolicyFairShare, Targets: 1, Engine: eng})
	var order []int
	hold := func(at float64, tenant, holder int, bytes, weight, dur float64) {
		eng.SpawnAt(at, "w", func(p *des.Proc) {
			g := b.AcquireSim(p, TokenRequest{
				Holder: holder, Tenant: tenant, Targets: []int{0},
				Bytes: bytes, Weight: weight,
			})
			order = append(order, tenant)
			p.Wait(dur)
			g.Release()
		})
	}
	// Warm-up consumption: tenant 1 moves 1000 bytes at weight 1,
	// tenant 2 moves 400 bytes at weight 0.25 (normalized 1600). The
	// second warm-up holds the token until t=10 so a queue forms.
	hold(0, 1, 11, 1000, 0, 1)
	hold(1, 2, 12, 400, 0.25, 9)
	// Waiters queue in arrival order 1, 2, 3; fair-share must grant
	// tenant 3 (served 0), then 1 (1000), then 2 (1600).
	hold(2, 1, 11, 10, 0, 1)
	hold(3, 2, 12, 10, 0.25, 1)
	hold(4, 3, 13, 10, 0, 1)
	eng.Run()
	want := []int{1, 2, 3, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
	st := b.Stats()
	if st.BytesByTenant[1] != 1010 || st.BytesByTenant[2] != 410 || st.BytesByTenant[3] != 10 {
		t.Fatalf("BytesByTenant = %v", st.BytesByTenant)
	}
	if st.GrantsByHolder[11] != 2 || st.GrantsByHolder[12] != 2 || st.GrantsByHolder[13] != 1 {
		t.Fatalf("GrantsByHolder = %v", st.GrantsByHolder)
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
		g := b.AcquireSim(p, TokenRequest{Holder: 0, Targets: []int{0}, Deadline: 5})
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
			g := b.AcquireSim(p, TokenRequest{
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
