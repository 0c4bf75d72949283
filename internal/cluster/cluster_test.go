package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

func TestTreeShape(t *testing.T) {
	cases := []struct{ n, fanout, roots int }{
		{1, 2, 1}, {2, 2, 1}, {7, 2, 1}, {16, 4, 1}, {16, 2, 4},
		{9, 3, 2}, {30, 5, 3}, {12, 1, 2}, {5, 2, 9},
	}
	for _, tc := range cases {
		tr := NewTree(tc.n, tc.fanout, tc.roots)
		wantRoots := tc.roots
		if wantRoots > tc.n {
			wantRoots = tc.n
		}
		roots := tr.Roots()
		if len(roots) != wantRoots {
			t.Fatalf("n=%d f=%d r=%d: %d roots, want %d", tc.n, tc.fanout, tc.roots, len(roots), wantRoots)
		}
		seen := map[int]bool{}
		// Walk down from every root; every node must be visited once.
		var walk func(i int)
		walk = func(i int) {
			if seen[i] {
				t.Fatalf("n=%d f=%d r=%d: node %d reached twice", tc.n, tc.fanout, tc.roots, i)
			}
			seen[i] = true
			for _, ch := range tr.Children(i) {
				if p, ok := tr.Parent(ch); !ok || p != i {
					t.Fatalf("child %d of %d has parent %d", ch, i, p)
				}
				walk(ch)
			}
		}
		for _, r := range roots {
			if !tr.IsRoot(r) || tr.RootOf(r) != r {
				t.Fatalf("root %d not a root of itself", r)
			}
			walk(r)
		}
		if len(seen) != tc.n {
			t.Fatalf("n=%d f=%d r=%d: reached %d nodes", tc.n, tc.fanout, tc.roots, len(seen))
		}
		for i := 0; i < tc.n; i++ {
			if len(tr.Children(i)) > tc.fanout && tc.fanout >= 1 {
				t.Fatalf("node %d has %d children > fanout %d", i, len(tr.Children(i)), tc.fanout)
			}
			if tr.IsLeaf(i) != (len(tr.Children(i)) == 0) {
				t.Fatalf("IsLeaf(%d) inconsistent", i)
			}
			root := tr.RootOf(i)
			if !tr.IsRoot(root) {
				t.Fatalf("RootOf(%d)=%d is not a root", i, root)
			}
		}
		if d := tr.Depth(); d < 1 || d > tc.n {
			t.Fatalf("depth %d out of range", d)
		}
	}
}

func TestTreeSingleNode(t *testing.T) {
	tr := NewTree(1, 4, 1)
	if !tr.IsRoot(0) || !tr.IsLeaf(0) || tr.Depth() != 1 {
		t.Fatal("degenerate tree wrong")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	b := &Batch{Iteration: 7, Blocks: []Block{
		{Node: 2, Source: 1, Variable: "theta", Data: []byte{1, 2, 3}},
		{Node: 0, Source: 0, Variable: "p", Data: nil},
		{Node: 2, Source: 0, Variable: "theta", Data: []byte{9}},
	}}
	enc := EncodeBatch(b)
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 7 || len(got.Blocks) != 3 {
		t.Fatalf("decoded %+v", got)
	}
	// EncodeBatch normalizes: (0,0,p), (2,0,theta), (2,1,theta).
	if got.Blocks[0].Variable != "p" || got.Blocks[1].Source != 0 || got.Blocks[2].Source != 1 {
		t.Fatalf("normalization wrong: %+v", got.Blocks)
	}
	if !bytes.Equal(got.Blocks[2].Data, []byte{1, 2, 3}) {
		t.Fatal("payload corrupted")
	}
	// Every cut names where the object ended. Layout: 12-byte header,
	// then per block 12 bytes of ids and name length, the name, a 4-byte
	// payload length and the payload — (0,0,"p") at 12–29,
	// (2,0,"theta") at 29–51, (2,1,"theta") at 51–75.
	for _, tc := range []struct {
		cut  int
		want string
	}{
		{3, "cluster: not a batch object"},
		{10, "cluster: truncated batch header"},
		{20, "cluster: truncated block 0"},
		{24, "cluster: truncated variable name in block 0"},
		{27, "cluster: truncated block 0"},
		{45, "cluster: truncated variable name in block 1"},
		{73, "cluster: truncated payload in block 2"},
		{len(enc) - 2, "cluster: truncated payload in block 2"},
	} {
		if _, err := DecodeBatch(enc[:tc.cut]); err == nil || err.Error() != tc.want {
			t.Errorf("cut at %d: err = %v, want %q", tc.cut, err, tc.want)
		}
	}
	if _, err := DecodeBatch([]byte("not a batch")); err == nil {
		t.Fatal("bad magic should error")
	}
}

// testMeta is a small per-node configuration: one 64-element float64
// variable, a 1 MB segment.
func testMeta(t *testing.T) *meta.Config {
	t.Helper()
	cfg, err := meta.ParseString(`<simulation name="clustertest">
	  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
	  <data>
	    <parameter name="n" value="64"/>
	    <layout name="row" type="float64" dimensions="n"/>
	    <variable name="theta" layout="row"/>
	  </data>
	</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func testPlatform(nodes, coresPerNode int) topology.Platform {
	return topology.Platform{Name: "test", Nodes: nodes, CoresPerNode: coresPerNode}
}

// allNames lists every object in store, ascending.
func allNames(t *testing.T, store storage.ObjectReader) []string {
	t.Helper()
	names, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// dataNames filters manifest objects out of a store listing.
func dataNames(names []string) []string {
	var out []string
	for _, n := range names {
		if !IsManifestName(n) {
			out = append(out, n)
		}
	}
	return out
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// payload builds the unique 512-byte block for (node, source, it).
func payload(node, source, it int) []byte {
	p := make([]byte, 64*8)
	for i := range p {
		p[i] = byte(node*131 + source*31 + it*7 + i)
	}
	return p
}

// runWorkload drives every client of the cluster through iters
// iterations with unique payloads and waits for the last to be stored.
func runWorkload(t *testing.T, c *Cluster, iters int) {
	t.Helper()
	if err := Drive(c, Workload{Variable: "theta", To: iters, Payload: payload}); err != nil {
		t.Error(err)
	}
}

func TestClusterFanInCorrectness(t *testing.T) {
	const nodes, clients, iters = 9, 2, 3
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{Meta: testMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	names := dataNames(allNames(t, store))
	if len(names) != iters {
		t.Fatalf("stored %d data objects, want %d (one per iteration): %v", len(names), iters, names)
	}
	for it := 0; it < iters; it++ {
		name := fmt.Sprintf("clustertest-root000-it%06d", it)
		obj, err := store.Get(name)
		if err != nil {
			t.Fatalf("missing object %s (have %v)", name, names)
		}
		b, err := DecodeBatch(obj)
		if err != nil {
			t.Fatal(err)
		}
		if b.Iteration != it {
			t.Fatalf("object %s holds iteration %d", name, b.Iteration)
		}
		if len(b.Blocks) != nodes*clients {
			t.Fatalf("iteration %d aggregated %d blocks, want %d", it, len(b.Blocks), nodes*clients)
		}
		seen := map[string]bool{}
		for _, blk := range b.Blocks {
			key := fmt.Sprintf("%d/%d/%s", blk.Node, blk.Source, blk.Variable)
			if seen[key] {
				t.Fatalf("iteration %d: duplicate block %s", it, key)
			}
			seen[key] = true
			if !bytes.Equal(blk.Data, payload(blk.Node, blk.Source, it)) {
				t.Fatalf("iteration %d: block %s payload corrupted in the tree", it, key)
			}
		}
	}

	st := c.Stats()
	if st.IterationsCompleted != iters {
		t.Errorf("IterationsCompleted = %d, want %d", st.IterationsCompleted, iters)
	}
	if st.ObjectsWritten != iters {
		t.Errorf("ObjectsWritten = %d, want %d", st.ObjectsWritten, iters)
	}
	if st.ManifestsWritten != iters {
		t.Errorf("ManifestsWritten = %d, want %d (one per data object)", st.ManifestsWritten, iters)
	}
	// 9 nodes, 1 root: every non-root forwards once per iteration.
	if want := (nodes - 1) * iters; st.BatchesForwarded != want {
		t.Errorf("BatchesForwarded = %d, want %d", st.BatchesForwarded, want)
	}
	if st.PartialIterations != 0 {
		t.Errorf("PartialIterations = %d, want 0", st.PartialIterations)
	}
	if st.BytesForwarded <= 0 {
		t.Error("no bytes forwarded through the tree")
	}
}

func TestClusterMultiRoot(t *testing.T) {
	const nodes, clients, iters, roots = 16, 1, 2, 4
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    roots,
		Store:    store,
	}, RunSpec{Meta: testMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Tree().Roots()); got != roots {
		t.Fatalf("%d roots, want %d", got, roots)
	}
	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := len(dataNames(allNames(t, store))); n != roots*iters {
		t.Fatalf("stored %d data objects, want %d", n, roots*iters)
	}
	// The union of the four subtree objects must cover every node
	// exactly once per iteration.
	for it := 0; it < iters; it++ {
		covered := map[int]bool{}
		for _, root := range c.Tree().Roots() {
			obj, err := store.Get(fmt.Sprintf("clustertest-root%03d-it%06d", root, it))
			if err != nil {
				t.Fatalf("missing object for root %d it %d", root, it)
			}
			b, err := DecodeBatch(obj)
			if err != nil {
				t.Fatal(err)
			}
			for _, blk := range b.Blocks {
				if covered[blk.Node] {
					t.Fatalf("node %d appears in two subtrees", blk.Node)
				}
				covered[blk.Node] = true
			}
		}
		if len(covered) != nodes {
			t.Fatalf("iteration %d covered %d nodes, want %d", it, len(covered), nodes)
		}
	}
}

// TestBackendSwapEquivalence: the same workload through the memory and
// the SDF backend must produce identical object names and bytes.
func TestBackendSwapEquivalence(t *testing.T) {
	const nodes, clients, iters = 6, 2, 2
	mem := storage.NewMemory(nil, 4, 1e9)
	sdfB, err := storage.NewSDF(nil, 4, 1e9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	objects := func(store storage.ObjectStore) map[string][]byte {
		c, err := New(ClusterConfig{
			Platform: testPlatform(nodes, clients+1),
			Fanout:   3,
			Store:    store,
		}, RunSpec{Meta: testMeta(t)})
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, c, iters)
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, name := range allNames(t, store.(storage.ObjectReader)) {
			data, err := store.(storage.ObjectReader).Get(name)
			if err != nil {
				t.Fatalf("object %s vanished", name)
			}
			out[name] = data
		}
		return out
	}
	a, b := objects(mem), objects(sdfB)
	if len(a) != len(b) || len(dataNames(keys(a))) != iters {
		t.Fatalf("object counts differ: memory=%d sdf=%d", len(a), len(b))
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Fatalf("sdf backend missing object %s", name)
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("object %s differs between backends", name)
		}
	}
}

func TestClusterHooks(t *testing.T) {
	const nodes, clients, iters = 4, 1, 3
	var mu sync.Mutex
	perIter := map[int]int{} // iteration → blocks seen by the hook
	hook := HookFunc{HookName: "count", Fn: func(it int, b *Batch) error {
		mu.Lock()
		perIter[it] += len(b.Blocks)
		mu.Unlock()
		return nil
	}}
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
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
	if len(perIter) != iters {
		t.Fatalf("hook ran for %d iterations, want %d", len(perIter), iters)
	}
	for it, blocks := range perIter {
		if blocks != nodes*clients {
			t.Errorf("iteration %d: hook saw %d blocks, want %d", it, blocks, nodes*clients)
		}
	}
}

func TestClusterHookError(t *testing.T) {
	boom := HookFunc{HookName: "boom", Fn: func(int, *Batch) error {
		return fmt.Errorf("synthetic failure")
	}}
	c, err := New(ClusterConfig{
		Platform: testPlatform(2, 2),
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, RunSpec{
		Meta:  testMeta(t),
		Hooks: []Hook{boom},
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, 1)
	if err := c.Shutdown(); err == nil {
		t.Fatal("hook error must surface from Shutdown")
	}
	if len(c.Errors()) == 0 {
		t.Fatal("Errors() empty after failing hook")
	}
	// A failing hook must not block the data path.
	if c.Stats().ObjectsWritten != 1 {
		t.Fatalf("ObjectsWritten = %d, want 1", c.Stats().ObjectsWritten)
	}
}

func TestClusterValidation(t *testing.T) {
	good := ClusterConfig{
		Platform: testPlatform(2, 2),
		Store:    storage.NewMemory(nil, 4, 1e9),
	}
	spec := RunSpec{Meta: testMeta(t)}
	bad := []func(cc *ClusterConfig, spec *RunSpec){
		func(cc *ClusterConfig, _ *RunSpec) { cc.Platform.Nodes = 0 },
		func(_ *ClusterConfig, spec *RunSpec) { spec.Meta = nil },
		func(cc *ClusterConfig, _ *RunSpec) { cc.Store = nil },
		func(cc *ClusterConfig, _ *RunSpec) { cc.Platform.CoresPerNode = 1 }, // no sim cores left
	}
	for i, mutate := range bad {
		cc, sp := good, spec
		mutate(&cc, &sp)
		if _, err := New(cc, sp); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	c, err := New(good, spec)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDeterministicObjects: two identical runs produce
// byte-identical root objects (normalization makes arrival order
// irrelevant).
func TestClusterDeterministicObjects(t *testing.T) {
	run := func() map[string][]byte {
		store := storage.NewMemory(nil, 4, 1e9)
		c, err := New(ClusterConfig{
			Platform: testPlatform(8, 3),
			Fanout:   2,
			Roots:    2,
			Store:    store,
		}, RunSpec{Meta: testMeta(t)})
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, c, 2)
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, n := range allNames(t, store) {
			d, _ := store.Get(n)
			out[n] = d
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs stored %d vs %d objects", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Fatalf("object %s not deterministic", name)
		}
	}
}
