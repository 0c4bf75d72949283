package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestFailureScheduleBasics(t *testing.T) {
	var nilSched *FailureSchedule
	if !nilSched.Empty() || nilSched.Len() != 0 || nilSched.Nodes() != nil {
		t.Fatal("nil schedule must behave as empty")
	}
	if _, ok := nilSched.At(3); ok {
		t.Fatal("nil schedule has no entries")
	}
	s := NewFailureSchedule().Add(4, 2).Add(1, -5).Add(4, 7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if it, ok := s.At(1); !ok || it != 0 {
		t.Fatalf("At(1) = %d, %v; want 0 (negative clamps)", it, ok)
	}
	if it, _ := s.At(4); it != 2 {
		t.Fatalf("At(4) = %d, want 2 (earlier death wins)", it)
	}
	if got, want := fmt.Sprint(s), "1@0,4@2"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestRandomFailuresDeterministic(t *testing.T) {
	a := RandomFailures(64, 10, 0.3, 42)
	b := RandomFailures(64, 10, 0.3, 42)
	if a.String() != b.String() {
		t.Fatalf("same seed differs: %s vs %s", a, b)
	}
	if a.Empty() {
		t.Fatal("rate 0.3 over 64 nodes produced no failures")
	}
	for _, n := range a.Nodes() {
		it, _ := a.At(n)
		if n < 0 || n >= 64 || it < 0 || it >= 10 {
			t.Fatalf("entry %d@%d out of range", n, it)
		}
	}
	if !RandomFailures(64, 10, 0, 42).Empty() {
		t.Fatal("rate 0 must be empty")
	}
	if RandomFailures(64, 10, 1, 42).Len() != 64 {
		t.Fatal("rate 1 must kill everything")
	}
}

func TestTreeFailInterior(t *testing.T) {
	tr := NewTree(7, 2, 1) // 0 → {1,2}; 1 → {3,4}; 2 → {5,6}
	edges := tr.Fail(1)
	if len(edges) != 2 {
		t.Fatalf("rerouted %d edges, want 2: %v", len(edges), edges)
	}
	if tr.Alive(1) {
		t.Fatal("node 1 still alive")
	}
	for _, k := range []int{3, 4} {
		if p, ok := tr.Parent(k); !ok || p != 0 {
			t.Fatalf("Parent(%d) = %d, %v; want 0", k, p, ok)
		}
	}
	if got := tr.Children(0); !equalInts(got, []int{2, 3, 4}) {
		t.Fatalf("Children(0) = %v, want [2 3 4]", got)
	}
	if got := tr.Roots(); !equalInts(got, []int{0}) {
		t.Fatalf("Roots = %v, want [0]", got)
	}
	if dest, ok := tr.DrainTarget(1); !ok || dest != 0 {
		t.Fatalf("DrainTarget(1) = %d, %v; want 0", dest, ok)
	}
	if got := tr.LiveSubtree(0).Nodes(nil); !equalInts(got, []int{0, 2, 3, 4, 5, 6}) {
		t.Fatalf("LiveSubtree(0) = %v", got)
	}
	if tr.LiveSubtree(1).Len() != 0 {
		t.Fatal("dead node has no live subtree")
	}
}

func TestTreeFailRootPromotesSibling(t *testing.T) {
	tr := NewTree(7, 2, 1)
	edges := tr.Fail(0)
	// 1 promoted to root, 2 re-routed to 1.
	if len(edges) != 2 || edges[0] != (RerouteEdge{Child: 1, NewParent: -1}) ||
		edges[1] != (RerouteEdge{Child: 2, NewParent: 1}) {
		t.Fatalf("edges = %v", edges)
	}
	if got := tr.Roots(); !equalInts(got, []int{1}) {
		t.Fatalf("Roots = %v, want [1]", got)
	}
	if !tr.IsRoot(1) || tr.IsRoot(0) {
		t.Fatal("promotion not reflected in IsRoot")
	}
	if got := tr.Children(1); !equalInts(got, []int{2, 3, 4}) {
		t.Fatalf("Children(1) = %v, want [2 3 4]", got)
	}
	if r := tr.RootOf(6); r != 1 {
		t.Fatalf("RootOf(6) = %d, want 1", r)
	}
	if dest, ok := tr.DrainTarget(0); !ok || dest != 1 {
		t.Fatalf("DrainTarget(0) = %d, %v; want 1", dest, ok)
	}
}

func TestTreeFailChildlessRoot(t *testing.T) {
	tr := NewTree(4, 2, 4) // every node its own root
	if edges := tr.Fail(2); len(edges) != 0 {
		t.Fatalf("childless root rerouted %v", edges)
	}
	if got := tr.Roots(); !equalInts(got, []int{0, 1, 3}) {
		t.Fatalf("Roots = %v", got)
	}
	if _, ok := tr.DrainTarget(2); ok {
		t.Fatal("childless dead root has no drain target")
	}
}

func TestTreeDrainTargetChasesChain(t *testing.T) {
	tr := NewTree(15, 2, 1) // 0 → {1,2}; 1 → {3,4}; 3 → {7,8}
	tr.Fail(3)              // 7,8 → 1; drain(3) = 1
	tr.Fail(1)              // 4,7,8 → 0; drain(1) = 0
	if dest, ok := tr.DrainTarget(3); !ok || dest != 0 {
		t.Fatalf("DrainTarget(3) = %d, %v; want 0 through the chain", dest, ok)
	}
	for _, k := range []int{4, 7, 8} {
		if p, ok := tr.Parent(k); !ok || p != 0 {
			t.Fatalf("Parent(%d) = %d, %v; want 0", k, p, ok)
		}
	}
}

func TestTreeCloneIndependent(t *testing.T) {
	tr := NewTree(7, 2, 1)
	tr.Fail(1)
	cp := tr.Clone()
	cp.Fail(2)
	if !tr.Alive(2) {
		t.Fatal("failing the clone leaked into the original")
	}
	if cp.Alive(2) || cp.Alive(1) {
		t.Fatal("clone lost state")
	}
}

// TestClusterInteriorFailure is the acceptance scenario: a 9-node
// binary tree loses interior node 1 at iteration 1 of 4. The run must
// finish without deadlock, the re-routed children's later iterations
// must reach the root, and the stats must account the loss.
func TestClusterInteriorFailure(t *testing.T) {
	const nodes, clients, iters, failAt = 9, 2, 4, 1
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2, // 0 → {1,2}; 1 → {3,4}; 2 → {5,6}; 3 → {7,8}
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Failures: NewFailureSchedule().Add(1, failAt),
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1) // must not deadlock
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", st.NodesFailed)
	}
	if st.ReroutedEdges != 2 {
		t.Errorf("ReroutedEdges = %d, want 2 (children 3,4 → 0)", st.ReroutedEdges)
	}
	// Node 1's own blocks for iterations 1..3: clients blocks each.
	if want := clients * (iters - failAt); st.BlocksLost != want {
		t.Errorf("BlocksLost = %d, want %d", st.BlocksLost, want)
	}
	if st.IterationsCompleted != iters {
		t.Errorf("IterationsCompleted = %d, want %d", st.IterationsCompleted, iters)
	}
	tr := c.Tree()
	if tr.Alive(1) {
		t.Error("tree snapshot still shows node 1 alive")
	}

	for it := 0; it < iters; it++ {
		obj, err := store.Get(fmt.Sprintf("clustertest-root000-it%06d", it))
		if err != nil {
			t.Fatalf("missing root object for iteration %d", it)
		}
		b, err := DecodeBatch(obj)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]int{}
		for _, blk := range b.Blocks {
			got[blk.Node]++
			if !bytes.Equal(blk.Data, payload(blk.Node, blk.Source, it)) {
				t.Fatalf("iteration %d: node %d payload corrupted", it, blk.Node)
			}
		}
		wantNodes := nodes
		if it >= failAt {
			wantNodes = nodes - 1 // only node 1 itself is missing
		}
		if len(got) != wantNodes {
			t.Fatalf("iteration %d covers %d nodes, want %d (%v)", it, len(got), wantNodes, got)
		}
		if it >= failAt {
			if _, hasDead := got[1]; hasDead {
				t.Fatalf("iteration %d contains blocks from the dead node", it)
			}
			// The re-routed children and their subtrees must be present.
			for _, k := range []int{3, 4, 7, 8} {
				if got[k] != clients {
					t.Fatalf("iteration %d: re-routed node %d contributed %d blocks, want %d",
						it, k, got[k], clients)
				}
			}
		}
		wantFrac := float64(wantNodes) / float64(nodes)
		if frac := st.Completeness[it]; frac != wantFrac {
			t.Errorf("Completeness[%d] = %v, want %v", it, frac, wantFrac)
		}
	}
	// Missing data from a dead node is loss, not a straggler: the
	// surviving subtree was complete every iteration.
	if st.PartialIterations != 0 {
		t.Errorf("PartialIterations = %d, want 0", st.PartialIterations)
	}
}

// TestClusterRootFailure kills one of two roots: its first child must
// take over as root and store the subtree's remaining iterations.
func TestClusterRootFailure(t *testing.T) {
	const nodes, clients, iters, failAt = 12, 1, 3, 1
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    2, // subtrees [0..5] and [6..11]
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Failures: NewFailureSchedule().Add(6, failAt),
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", st.NodesFailed)
	}
	// 7 promoted to root, 8 re-routed under 7.
	if st.ReroutedEdges != 2 {
		t.Errorf("ReroutedEdges = %d, want 2", st.ReroutedEdges)
	}
	if got := c.Tree().Roots(); !equalInts(got, []int{0, 7}) {
		t.Fatalf("Roots = %v, want [0 7]", got)
	}
	// Every iteration after the death must be stored by the promoted
	// root and cover the subtree minus the dead node.
	for it := failAt; it < iters; it++ {
		obj, err := store.Get(fmt.Sprintf("clustertest-root007-it%06d", it))
		if err != nil {
			t.Fatalf("promoted root stored nothing for iteration %d", it)
		}
		b, err := DecodeBatch(obj)
		if err != nil {
			t.Fatal(err)
		}
		covered := map[int]bool{}
		for _, blk := range b.Blocks {
			covered[blk.Node] = true
		}
		for _, n := range []int{7, 8, 9, 10, 11} {
			if !covered[n] {
				t.Fatalf("iteration %d at promoted root misses node %d (%v)", it, n, covered)
			}
		}
		if covered[6] {
			t.Fatalf("iteration %d contains the dead root's blocks", it)
		}
	}
	if frac := st.Completeness[iters-1]; frac != float64(nodes-1)/float64(nodes) {
		t.Errorf("Completeness[%d] = %v, want %v", iters-1, frac, float64(nodes-1)/float64(nodes))
	}
}

// TestClusterEmptyScheduleIdentical: an empty (non-nil) schedule must
// leave every object byte-identical to a nil-schedule run.
func TestClusterEmptyScheduleIdentical(t *testing.T) {
	run := func(sched *FailureSchedule) map[string][]byte {
		store := storage.NewMemory(nil, 4, 1e9)
		c, err := New(ClusterConfig{
			Platform: testPlatform(8, 3),
			Fanout:   2,
			Roots:    2,
			Store:    store,
		}, RunSpec{
			Meta:     testMeta(t),
			Failures: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, c, 2)
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.NodesFailed != 0 || st.BlocksLost != 0 || st.ReroutedEdges != 0 {
			t.Fatalf("failure stats nonzero without failures: %+v", st)
		}
		for it, frac := range st.Completeness {
			if frac != 1 {
				t.Fatalf("Completeness[%d] = %v without failures", it, frac)
			}
		}
		out := map[string][]byte{}
		for _, n := range allNames(t, store) {
			d, _ := store.Get(n)
			out[n] = d // manifests included: they must be deterministic too
		}
		return out
	}
	a, b := run(nil), run(NewFailureSchedule())
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("object counts differ: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Fatalf("object %s differs between nil and empty schedule", name)
		}
	}
}

// TestClusterCascadingFailures kills a node and, later, the node that
// adopted its children: the drain chain must still deliver.
func TestClusterCascadingFailures(t *testing.T) {
	const nodes, clients, iters = 9, 1, 5
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{
		Meta: testMeta(t),
		// 1 dies at it 1 (3,4 → 0); 2 dies at it 3 (5,6 → 0).
		Failures: NewFailureSchedule().Add(1, 1).Add(2, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.NodesFailed != 2 {
		t.Errorf("NodesFailed = %d, want 2", st.NodesFailed)
	}
	if st.ReroutedEdges != 4 {
		t.Errorf("ReroutedEdges = %d, want 4", st.ReroutedEdges)
	}
	// Final iteration: everything except the two dead nodes.
	obj, err := store.Get(fmt.Sprintf("clustertest-root000-it%06d", iters-1))
	if err != nil {
		t.Fatal("missing final object")
	}
	b, err := DecodeBatch(obj)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{}
	for _, blk := range b.Blocks {
		covered[blk.Node] = true
	}
	for _, n := range []int{0, 3, 4, 5, 6, 7, 8} {
		if !covered[n] {
			t.Fatalf("final iteration misses live node %d: %v", n, covered)
		}
	}
}

// TestPartialIterationsCountedOncePerIteration is the regression test
// for the double-counting bug: one straggler iteration flowing through
// a depth-3 tree used to be counted once per ancestor holding a
// pending entry; it must count once.
func TestPartialIterationsCountedOncePerIteration(t *testing.T) {
	const nodes, clients = 7, 1
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2, // depth 3: 0 → {1,2} → {3,4,5,6}
		Store:    store,
	}, RunSpec{Meta: testMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Tree().Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
	// Every node completes iteration 0; only leaf node 3 produces
	// iteration 1 — a straggler that climbs through 1 and 0.
	for n := 0; n < nodes; n++ {
		cl := c.Client(n, 0)
		if err := cl.Write("theta", 0, payload(n, 0, 0)); err != nil {
			t.Fatal(err)
		}
		cl.EndIteration(0)
	}
	cl := c.Client(3, 0)
	if err := cl.Write("theta", 1, payload(3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	cl.EndIteration(1)
	c.WaitIteration(0)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PartialIterations != 1 {
		t.Fatalf("PartialIterations = %d, want 1 (straggler counted once, not per ancestor)",
			st.PartialIterations)
	}
	// The straggler data itself must have been stored, not dropped.
	obj, err := store.Get("clustertest-root000-it000001")
	if err != nil {
		t.Fatal("straggler iteration not stored")
	}
	b, err := DecodeBatch(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Blocks) != 1 || b.Blocks[0].Node != 3 {
		t.Fatalf("straggler object wrong: %+v", b.Blocks)
	}
	if frac := st.Completeness[1]; frac != 1.0/nodes {
		t.Errorf("Completeness[1] = %v, want %v", frac, 1.0/nodes)
	}
}

// TestHookSeesNormalizedOrder: hooks must observe blocks in the same
// (node, source, variable) order EncodeBatch stores, not arrival order.
func TestHookSeesNormalizedOrder(t *testing.T) {
	const nodes, clients, iters = 6, 2, 2
	type key struct{ node, source int }
	seen := map[int][]key{}
	hook := HookFunc{HookName: "order", Fn: func(it int, b *Batch) error {
		for _, blk := range b.Blocks {
			seen[it] = append(seen[it], key{blk.Node, blk.Source})
		}
		return nil
	}}
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   3,
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, RunSpec{
		Meta:  testMeta(t),
		Hooks: []Hook{hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		got := seen[it]
		if len(got) != nodes*clients {
			t.Fatalf("iteration %d: hook saw %d blocks", it, len(got))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].node != got[j].node {
				return got[i].node < got[j].node
			}
			return got[i].source < got[j].source
		}) {
			t.Fatalf("iteration %d: hook saw unnormalized order %v", it, got)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterAllRootsDead: when every root dies, WaitIteration must
// return instead of blocking on iterations nothing will ever store.
func TestClusterAllRootsDead(t *testing.T) {
	const nodes, clients, iters = 3, 1, 2
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    3, // every node its own (childless) root
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Failures: NewFailureSchedule().Add(0, 0).Add(1, 0).Add(2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	done := make(chan struct{})
	go func() {
		c.WaitIteration(iters - 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitIteration wedged with every root dead")
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.NodesFailed != nodes {
		t.Errorf("NodesFailed = %d, want %d", st.NodesFailed, nodes)
	}
	if st.IterationsCompleted != 0 {
		t.Errorf("IterationsCompleted = %d with no surviving roots", st.IterationsCompleted)
	}
	if st.ObjectsWritten != 0 {
		t.Errorf("ObjectsWritten = %d, want 0", st.ObjectsWritten)
	}
}
