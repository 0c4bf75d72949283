package cluster

import (
	"sync"
	"testing"

	"repro/internal/storage"
)

// collectBlocks decodes every data object in the store and returns, per
// iteration, the set of (node, source) pairs whose blocks reached a
// stored root object.
func collectBlocks(t *testing.T, store *storage.Memory) map[int]map[[2]int]bool {
	t.Helper()
	got := map[int]map[[2]int]bool{}
	for _, name := range dataNames(allNames(t, store)) {
		obj, err := store.Get(name)
		if err != nil {
			t.Fatalf("listed object %s vanished", name)
		}
		b, err := DecodeBatch(obj)
		if err != nil {
			t.Fatalf("decode %s: %v", name, err)
		}
		m := got[b.Iteration]
		if m == nil {
			m = map[[2]int]bool{}
			got[b.Iteration] = m
		}
		for _, blk := range b.Blocks {
			key := [2]int{blk.Node, blk.Source}
			if m[key] {
				t.Fatalf("iteration %d: block (node %d, source %d) stored twice",
					b.Iteration, blk.Node, blk.Source)
			}
			m[key] = true
		}
	}
	return got
}

// TestReformMidRunCompleteness drives writers through several topology
// re-formations and asserts the epoch fence keeps every acknowledged
// block exactly once: no iteration loses data to a re-formation and
// none is double-stored.
func TestReformMidRunCompleteness(t *testing.T) {
	const nodes, clients, iters = 12, 2, 6
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    1,
		Store:    store,
	}, RunSpec{Meta: testMeta(t)})
	if err != nil {
		t.Fatal(err)
	}

	shapes := [][2]int{{4, 2}, {2, 4}, {3, 1}} // fanout, roots per re-formation
	err = Drive(c, Workload{Variable: "theta", To: iters, Payload: payload,
		// Lockstep: the iteration has routed, so the fence lands past it
		// and each re-formation opens a genuinely new epoch.
		EachIteration: func(it int) error {
			if it >= len(shapes) {
				return nil
			}
			from, err := c.Reform(shapes[it][0], shapes[it][1])
			if err != nil {
				t.Fatalf("reform %v: %v", shapes[it], err)
			}
			if from <= it {
				t.Fatalf("reform fence %d not past routed iteration %d", from, it)
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.TreeReforms != len(shapes) {
		t.Fatalf("TreeReforms = %d, want %d", st.TreeReforms, len(shapes))
	}
	if c.Epochs() < 2 {
		t.Fatalf("expected multiple topology epochs, have %d", c.Epochs())
	}
	got := collectBlocks(t, store)
	for it := 0; it < iters; it++ {
		if len(got[it]) != nodes*clients {
			t.Fatalf("iteration %d: %d blocks stored, want %d", it, len(got[it]), nodes*clients)
		}
		if frac := st.Completeness[it]; frac != 1 {
			t.Fatalf("iteration %d: completeness %g, want 1 (no injected failures)", it, frac)
		}
	}
}

// TestAdaptReformRaceWithStreaming re-forms the tree continuously while
// every client writes concurrently and a streaming subscriber consumes
// merged batches — the race the Forest's epoch fence must survive (run
// under -race by `make test`, at -count=200 by `make race-stress`).
func TestAdaptReformRaceWithStreaming(t *testing.T) {
	const nodes, clients, iters = 10, 2, 8
	store := storage.NewMemory(nil, 4, 1e9)
	stream := storage.NewStream()
	sub := stream.Subscribe(storage.SubOptions{Buffer: nodes * iters})
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    2,
		Store:    store,
	}, RunSpec{
		Meta:  testMeta(t),
		Hooks: []Hook{NewStreamingHook(stream)},
	})
	if err != nil {
		t.Fatal(err)
	}

	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	frames := 0
	go func() {
		defer consumerWG.Done()
		var lastSeq uint64
		for {
			msg, err := sub.Recv()
			if err != nil {
				return
			}
			if msg.Seq <= lastSeq && lastSeq != 0 {
				t.Errorf("stream sequence went backwards: %d after %d", msg.Seq, lastSeq)
				return
			}
			lastSeq = msg.Seq
			if _, err := DecodeBatch(msg.Data); err != nil {
				t.Errorf("stream frame: %v", err)
				return
			}
			frames++
		}
	}()

	stop := make(chan struct{})
	var reformWG sync.WaitGroup
	reformWG.Add(1)
	// The re-forming loop starts before the writers and the writers wait
	// for its first call: on a loaded host the whole workload can finish
	// before a goroutine started afterwards is first scheduled, and the
	// run would then race nothing.
	reforming := make(chan struct{})
	var first sync.Once
	go func() {
		defer reformWG.Done()
		defer first.Do(func() { close(reforming) })
		shapes := [][2]int{{2, 1}, {4, 4}, {3, 2}, {2, 5}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sh := shapes[i%len(shapes)]
			if _, err := c.Reform(sh[0], sh[1]); err != nil {
				t.Errorf("reform %v: %v", sh, err)
				return
			}
			first.Do(func() { close(reforming) })
		}
	}()

	<-reforming

	runWorkload(t, c, iters)
	close(stop)
	reformWG.Wait()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	consumerWG.Wait()

	got := collectBlocks(t, store)
	for it := 0; it < iters; it++ {
		if len(got[it]) != nodes*clients {
			t.Fatalf("iteration %d: %d blocks stored, want %d", it, len(got[it]), nodes*clients)
		}
	}
	if frames == 0 {
		t.Fatal("streaming subscriber saw no frames")
	}
	if c.Stats().TreeReforms == 0 {
		t.Fatal("no re-formation actually happened during the run")
	}
}

// TestReformWithFailures kills a node mid-run and re-forms afterwards:
// the new epoch must keep the corpse dead, and only the dead node's
// contributions may go missing.
func TestReformWithFailures(t *testing.T) {
	const nodes, clients, iters, victim, failAt = 8, 2, 5, 5, 2
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    2,
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Failures: NewFailureSchedule().Add(victim, failAt),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Lockstep lets the victim's earlier iterations be stored before it
	// dies. Since Forest rule 1 its root awaits them either way
	// (TestClusterInteriorFailure covers the unsynchronised case); the
	// barrier keeps this test about re-formation.
	err = Drive(c, Workload{Variable: "theta", To: iters, Payload: payload,
		EachIteration: func(it int) error {
			if it != failAt {
				return nil
			}
			// The death happened when the victim's aggregator reached
			// iteration failAt and the round has settled: re-form — the
			// overlay must carry over.
			if _, err := c.Reform(4, 1); err != nil {
				t.Fatalf("reform after failure: %v", err)
			}
			if tr := c.Tree(); tr.Alive(victim) {
				t.Fatal("re-formed tree resurrected the dead node")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	if c.Stats().NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want 1", c.Stats().NodesFailed)
	}
	got := collectBlocks(t, store)
	for it := 0; it < iters; it++ {
		for n := 0; n < nodes; n++ {
			if n == victim && it >= failAt {
				continue // the dead node's loss is the tolerated one
			}
			for s := 0; s < clients; s++ {
				if !got[it][[2]int{n, s}] {
					t.Fatalf("iteration %d lost live block (node %d, source %d)", it, n, s)
				}
			}
		}
	}
}

// TestReformValidation exercises the argument checks and the in-place
// replacement of an epoch that never routed.
func TestReformValidation(t *testing.T) {
	c, err := New(ClusterConfig{
		Platform: testPlatform(4, 2),
		Fanout:   2,
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, RunSpec{Meta: testMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Reform(1, 1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := c.Reform(2, 0); err == nil {
		t.Fatal("zero roots accepted")
	}
	// Two re-formations before any routing: the second must replace the
	// first's unused epoch, not stack a third.
	if _, err := c.Reform(3, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reform(4, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Epochs(); got != 1 {
		t.Fatalf("unused epochs stacked: %d, want 1 (in-place replacement)", got)
	}
	if got := c.Stats().TreeReforms; got != 2 {
		t.Fatalf("TreeReforms = %d, want 2", got)
	}
}

// TestRecommendTopology pins the adaptation heuristic's direction: a
// slower NIC must not shrink the root set (flatter forest, shorter
// store-and-forward chains), a slower PFS must not widen it (fewer,
// larger sequential streams), and the output is always a valid shape.
func TestRecommendTopology(t *testing.T) {
	const nodes, targets = 256, 336
	nodeBytes := 456e6

	fNIC, rNIC := RecommendTopology(nodes, nodeBytes, 1e8, 5e8, targets)
	fFast, rFast := RecommendTopology(nodes, nodeBytes, 1e10, 5e8, targets)
	if rNIC < rFast {
		t.Fatalf("slow NIC picked fewer roots (%d) than fast NIC (%d)", rNIC, rFast)
	}
	_, rPFS := RecommendTopology(nodes, nodeBytes, 1e10, 1e7, targets)
	if rPFS > rFast {
		t.Fatalf("slow PFS picked more roots (%d) than fast PFS (%d)", rPFS, rFast)
	}

	for _, tc := range [][5]int{
		{1, 1, 1, 1, 1}, {2, 1, 1, 1, 4}, {nodes, 1, 1, 1, targets},
	} {
		f, r := RecommendTopology(tc[0], float64(tc[1]), float64(tc[2]), float64(tc[3]), tc[4])
		if f < 2 {
			t.Fatalf("nodes=%d: fanout %d < 2", tc[0], f)
		}
		if r < 1 || r > tc[0] {
			t.Fatalf("nodes=%d: roots %d out of [1, %d]", tc[0], r, tc[0])
		}
	}
	if f, r := RecommendTopology(64, 456e6, 0, 0, 0); f < 2 || r < 1 {
		t.Fatalf("degenerate bandwidths gave invalid shape (%d, %d)", f, r)
	}
	if fNIC < 2 || fFast < 2 {
		t.Fatalf("invalid fanouts %d, %d", fNIC, fFast)
	}
}
