package cluster

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// servicePayload is the dedup-friendly 128-byte block for the service
// race tests: stable pseudorandom content per (salt, node, source),
// with only node 0's source 0 varying by iteration — so chunks repeat
// across iterations and across tenants sharing the store.
func servicePayload(salt int64, node, source, it int) []byte {
	r := rand.New(rand.NewSource(salt<<32 | int64(node)<<16 | int64(source)))
	p := make([]byte, 16*8)
	r.Read(p)
	if node == 0 && source == 0 {
		for i := 0; i < 16; i++ {
			p[i] = byte(it*11 + i)
		}
	}
	return p
}

// driveDedupTenant pushes iterations [0, iters) through every client of
// a tenant's cluster with the dedup-friendly payloads. Tolerant of
// write errors (break, don't fail): the evicted tenant's clients die
// mid-iteration by design.
func driveDedupTenant(c *Cluster, salt int64, iters int) {
	_ = Drive(c, Workload{Variable: "theta", To: iters,
		Payload: func(n, s, it int) []byte { return servicePayload(salt, n, s, it) }})
}

// TestServiceDedupSweepEvictRace is the GC-vs-writes race: two tenants
// share one dedup chunk store while a background goroutine sweeps it
// continuously. Tenant A runs a retention window (so it keeps releasing
// aged iterations into the sweeper's teeth); tenant B is evicted
// mid-iteration. No chunk referenced by a retained manifest may ever be
// collected: after the dust settles, A's retained window and every
// iteration B managed to store must restore byte-identical. Run under
// -race via `make test`.
func TestServiceDedupSweepEvictRace(t *testing.T) {
	const (
		aIters, aRetain = 8, 2
		bIters          = 20
		aSalt, bSalt    = 1, 2
	)
	st := chunk.New(storage.NewMemory(nil, 4, 1e9), chunk.Options{
		// Small chunks so the 128-byte-block objects are chunked rather
		// than passed through raw.
		Params: chunk.Params{Min: 64, Avg: 256, Max: 1024},
	})
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 6, CoresPerNode: 3},
		Store:    st,
	}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	a, err := svc.Submit(RunSpec{
		Meta: serviceMeta(t), JobName: "dedup-a",
		Quota: Quota{Nodes: 3}, Retain: aRetain,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(RunSpec{
		Meta: serviceMeta(t), JobName: "dedup-b",
		Quota: Quota{Nodes: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	aC, bC := a.Cluster(), b.Cluster()
	if aC == nil || bC == nil {
		t.Fatalf("tenants not running: %s / %s", a.State(), b.State())
	}
	aNodes := aC.Nodes()

	// The sweeper: collects whatever is released, concurrently with both
	// tenants' writes and B's eviction.
	stopSweep := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stopSweep:
				return
			default:
				if _, err := st.Sweep(); err != nil {
					t.Errorf("concurrent sweep: %v", err)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	// Tenant A writes its whole run with the retention window active.
	var aDone sync.WaitGroup
	aDone.Add(1)
	go func() {
		defer aDone.Done()
		driveDedupTenant(aC, aSalt, aIters)
	}()

	// Tenant B writes until evicted mid-iteration.
	var bDone sync.WaitGroup
	bDone.Add(1)
	go func() {
		defer bDone.Done()
		driveDedupTenant(bC, bSalt, bIters)
	}()
	bC.WaitIteration(2) // a few of B's objects are durable
	if err := b.Evict(); err != nil {
		t.Errorf("evict: %v", err)
	}
	bDone.Wait()

	aDone.Wait()
	aC.WaitIteration(aIters - 1)
	aStats := a.Stats()
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	close(stopSweep)
	sweeps.Wait()
	if aStats.ObjectsReleased == 0 {
		t.Fatal("tenant A's retention released nothing")
	}
	if _, err := st.Sweep(); err != nil {
		t.Fatal(err)
	}

	// Tenant A: the retained window survived every concurrent sweep.
	ra, err := Restore(st, "dedup-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Problems) != 0 {
		t.Fatalf("tenant A restore problems: %v", ra.Problems)
	}
	if it, ok := ra.LatestComplete(aNodes); !ok || it != aIters-1 {
		t.Fatalf("tenant A LatestComplete = %d, %v; want %d", it, ok, aIters-1)
	}
	for it := aIters - aRetain; it < aIters; it++ {
		ri := ra.Iterations[it]
		if ri == nil || !ri.Complete(aNodes) {
			t.Fatalf("tenant A retained iteration %d not recoverable after concurrent sweeps", it)
		}
		for _, blk := range ri.Blocks {
			if !bytes.Equal(blk.Data, servicePayload(aSalt, blk.Node, blk.Source, it)) {
				t.Fatalf("tenant A iteration %d block (%d,%d) corrupted", it, blk.Node, blk.Source)
			}
		}
	}

	// Tenant B: eviction released nothing, so every manifest it stored
	// before dying still restores — its chunks were never collectable,
	// even the ones shared with A's released iterations.
	rb, err := Restore(st, "dedup-b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Problems) != 0 {
		t.Fatalf("evicted tenant's stored iterations must stay readable: %v", rb.Problems)
	}
	if len(rb.Iterations) == 0 {
		t.Fatal("tenant B stored nothing before eviction")
	}
	for it, ri := range rb.Iterations {
		if ri.PayloadMissing {
			t.Fatalf("tenant B iteration %d lost its payload to the sweeper", it)
		}
		for _, blk := range ri.Blocks {
			if !bytes.Equal(blk.Data, servicePayload(bSalt, blk.Node, blk.Source, it)) {
				t.Fatalf("tenant B iteration %d block (%d,%d) corrupted", it, blk.Node, blk.Source)
			}
		}
	}
}
