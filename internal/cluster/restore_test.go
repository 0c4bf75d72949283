package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/meta"
	"repro/internal/storage"
)

func TestManifestCodecRoundTrip(t *testing.T) {
	b := &Batch{Iteration: 3, Blocks: []Block{
		{Node: 0, Source: 1, Variable: "theta", Data: []byte{1, 2}},
		{Node: 2, Source: 0, Variable: "p", Data: nil},
	}}
	m := newManifest("job", 4, "job-root004-it000003", b, []int{0, 2, 5}, true)
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("decoded %+v, encoded %+v", got, m)
	}
	if got.Job != "job" || got.Root != 4 || got.Iteration != 3 || !got.Partial {
		t.Fatalf("decoded %+v", got)
	}
	if len(got.Covers) != 3 || len(got.Blocks) != 2 {
		t.Fatalf("covers/blocks wrong: %+v", got)
	}
	if got.Blocks[0].Variable != "theta" || got.Blocks[0].Bytes != 2 {
		t.Fatalf("block index wrong: %+v", got.Blocks)
	}
	if got.Name() != "job-root004-it000003-manifest" {
		t.Fatalf("Name = %q", got.Name())
	}
	if !IsManifestName(got.Name()) || IsManifestName(got.Object) {
		t.Fatal("IsManifestName wrong")
	}
	for name, want := range map[string]int{got.Name(): 3, got.Object: 3, "job-it000003": -1, "job-root004-itx": -1} {
		if it, ok := ObjectIteration(name); ok != (want >= 0) || (ok && it != want) {
			t.Fatalf("ObjectIteration(%q) = %d, %v", name, it, ok)
		}
	}
	if _, err := DecodeManifest(append(EncodeManifest(m), 0)); !errors.Is(err, ErrNotManifest) {
		t.Fatalf("trailing byte: err = %v, want ErrNotManifest", err)
	}
	if _, err := DecodeManifest([]byte("not a manifest")); !errors.Is(err, ErrNotManifest) {
		t.Fatalf("garbage: err = %v, want ErrNotManifest", err)
	}
	// A v3-tagged manifest is foreign, and a JSON v1 manifest is no
	// longer read: Restore records each as an ErrManifestFormat problem.
	store := storage.NewMemory(nil, 1, 1e9)
	v3 := *m
	v3.Format = "damaris-manifest-v3"
	v1 := `{"format":"damaris-manifest-v1","job":"job","root":5,"iteration":3,"object":"job-root005-it000003","covers":[1],"partial":false,"blocks":[]}`
	if err := errors.Join(store.Put(m.Name(), EncodeManifest(&v3)),
		store.Put("job-root005-it000003-manifest", []byte(v1))); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(store, "job")
	if err != nil || r.Manifests != 0 || len(r.Problems) != 2 {
		t.Fatalf("restore of v3 and JSON v1 manifests: %v, %d manifests, problems %v", err, r.Manifests, r.Problems)
	}
	for _, p := range r.Problems {
		if !errors.Is(p, ErrManifestFormat) {
			t.Fatalf("problem %v is not ErrManifestFormat", p)
		}
	}
	if !strings.Contains(r.Problems[1].Error(), "v1") {
		t.Fatalf("JSON manifest problem does not name v1: %v", r.Problems[1])
	}
}

// BenchmarkManifestCodec encodes and decodes the manifest of a
// 256-block root object, the size a tenants-small root stores.
func BenchmarkManifestCodec(b *testing.B) {
	batch := &Batch{Iteration: 12}
	for i := 0; i < 256; i++ {
		batch.Blocks = append(batch.Blocks, Block{Node: i / 32, Source: i / 16 % 2,
			Variable: fmt.Sprint("var", i%16), Data: make([]byte, 512)})
	}
	batch.normalize()
	m := newManifest("tenant0", 0, "tenant0-root000-it000012", batch, []int{0, 1, 2, 3, 4, 5, 6, 7}, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeManifest(EncodeManifest(m)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRestoreChecksBlockIdentities: a data object with as many blocks
// as its manifest lists, but a different variable or size in one of
// them, is a problem and leaves its iteration PayloadMissing.
func TestRestoreChecksBlockIdentities(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Block)
	}{
		{"variable", func(b *Block) { b.Variable = "p" }},
		{"size", func(b *Block) { b.Data = b.Data[:1] }},
		{"source", func(b *Block) { b.Source = 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewMemory(nil, 1, 1e9)
			b := &Batch{Iteration: 1, Blocks: []Block{
				{Node: 0, Source: 0, Variable: "theta", Data: []byte{1, 2, 3}},
				{Node: 1, Source: 0, Variable: "theta", Data: []byte{4, 5, 6}},
			}}
			m := newManifest("job", 0, "job-root000-it000001", b, []int{0, 1}, false)
			tc.mutate(&b.Blocks[1])
			if err := errors.Join(store.Put(m.Object, EncodeBatch(b)), store.Put(m.Name(), EncodeManifest(m))); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(store, "job")
			if err != nil || r.Manifests != 1 || len(r.Problems) != 1 {
				t.Fatalf("restore: %v, %d manifests, problems %v", err, r.Manifests, r.Problems)
			}
			if ri := r.Iterations[1]; !ri.PayloadMissing || len(ri.Blocks) != 0 {
				t.Fatalf("mismatched object restored: %+v", ri)
			}
		})
	}
}

// runRestoreWorkload runs a small cluster against store and returns its
// final stats.
func runRestoreWorkload(t *testing.T, store storage.ObjectStore, nodes, clients, iters int, sched *FailureSchedule) Stats {
	t.Helper()
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Failures: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// TestRestoreRoundTrip: a run without failures restores 100% of its
// blocks, byte-identical, and every iteration is a complete checkpoint.
func TestRestoreRoundTrip(t *testing.T) {
	const nodes, clients, iters = 9, 2, 3
	store := storage.NewMemory(nil, 4, 1e9)
	runRestoreWorkload(t, store, nodes, clients, iters, nil)

	r, err := Restore(store, "clustertest")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) != 0 {
		t.Fatalf("restore problems: %v", r.Problems)
	}
	if r.Manifests != iters {
		t.Fatalf("Manifests = %d, want %d", r.Manifests, iters)
	}
	if got := r.TotalBlocks(); got != nodes*clients*iters {
		t.Fatalf("TotalBlocks = %d, want %d", got, nodes*clients*iters)
	}
	if it, ok := r.LatestComplete(nodes); !ok || it != iters-1 {
		t.Fatalf("LatestComplete = %d, %v; want %d", it, ok, iters-1)
	}
	for it, frac := range r.Completeness(nodes) {
		if frac != 1 {
			t.Fatalf("Completeness[%d] = %v, want 1", it, frac)
		}
	}
	for _, it := range r.IterationNumbers() {
		state := r.NodeBlocks(it)
		if len(state) != nodes {
			t.Fatalf("iteration %d: state covers %d nodes", it, len(state))
		}
		for n, blocks := range state {
			if len(blocks) != clients {
				t.Fatalf("iteration %d node %d: %d blocks", it, n, len(blocks))
			}
			for _, blk := range blocks {
				if !bytes.Equal(blk.Data, payload(blk.Node, blk.Source, it)) {
					t.Fatalf("iteration %d: node %d payload corrupted on the read path", it, n)
				}
			}
		}
	}
	// Replay visits iterations ascending with normalized batches, like
	// a live hook would have seen them.
	var visited []int
	err = r.Replay(func(it int, b *Batch) error {
		visited = append(visited, it)
		if len(b.Blocks) != nodes*clients {
			t.Fatalf("replay iteration %d: %d blocks", it, len(b.Blocks))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != iters {
		t.Fatalf("replay visited %v", visited)
	}
	for i, it := range visited {
		if it != i {
			t.Fatalf("replay order %v", visited)
		}
	}
}

// TestRestoreAfterFailure: the restore recovers exactly the blocks the
// failure did not lose, and the latest complete checkpoint is the last
// iteration before the death.
func TestRestoreAfterFailure(t *testing.T) {
	const nodes, clients, iters, failAt = 9, 2, 4, 2
	store := storage.NewMemory(nil, 4, 1e9)
	st := runRestoreWorkload(t, store, nodes, clients, iters,
		NewFailureSchedule().Add(1, failAt))
	if st.BlocksLost == 0 {
		t.Fatal("test needs actual loss")
	}

	r, err := Restore(store, "clustertest")
	if err != nil {
		t.Fatal(err)
	}
	produced := nodes * clients * iters
	if got, want := r.TotalBlocks(), produced-st.BlocksLost; got != want {
		t.Fatalf("recovered %d blocks, want exactly the non-lost %d (produced %d, lost %d)",
			got, want, produced, st.BlocksLost)
	}
	if it, ok := r.LatestComplete(nodes); !ok || it != failAt-1 {
		t.Fatalf("LatestComplete = %d, %v; want %d (last pre-death checkpoint)", it, ok, failAt-1)
	}
	for it, ri := range r.Iterations {
		wantComplete := it < failAt
		if ri.Complete(nodes) != wantComplete {
			t.Fatalf("iteration %d: Complete = %v, want %v", it, ri.Complete(nodes), wantComplete)
		}
		for _, blk := range ri.Blocks {
			if it >= failAt && blk.Node == 1 {
				t.Fatalf("iteration %d: dead node's block restored", it)
			}
		}
	}
	// The restore's view of coverage must agree with the run's stats.
	restored := r.Completeness(nodes)
	for it, frac := range st.Completeness {
		if restored[it] != frac {
			t.Fatalf("Completeness[%d]: restore %v vs run %v", it, restored[it], frac)
		}
	}
}

// TestRestoreFromSDFDirectory: restore must work in a fresh process —
// a new SDF backend over a directory an earlier backend wrote.
func TestRestoreFromSDFDirectory(t *testing.T) {
	const nodes, clients, iters = 5, 1, 2
	dir := t.TempDir()
	writer, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	runRestoreWorkload(t, writer, nodes, clients, iters, nil)

	// A fresh backend has no in-memory owner map: List and Get must
	// recover names from the files themselves.
	reader, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(reader, "clustertest")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) != 0 {
		t.Fatalf("restore problems: %v", r.Problems)
	}
	if got := r.TotalBlocks(); got != nodes*clients*iters {
		t.Fatalf("TotalBlocks = %d, want %d", got, nodes*clients*iters)
	}
	if it, ok := r.LatestComplete(nodes); !ok || it != iters-1 {
		t.Fatalf("LatestComplete = %d, %v", it, ok)
	}
}

// TestRestoreMissingDataObject: a manifest whose data object vanished
// marks the iteration PayloadMissing but keeps the manifest's coverage
// view.
func TestRestoreMissingDataObject(t *testing.T) {
	const nodes, clients, iters = 4, 1, 2
	store := storage.NewMemory(nil, 4, 1e9)
	runRestoreWorkload(t, store, nodes, clients, iters, nil)

	// Simulate bit-rot: replace iteration 1's data object with garbage
	// on a second store holding the same manifests.
	corrupted := storage.NewMemory(nil, 4, 1e9)
	names, _ := store.List("")
	for _, n := range names {
		d, err := store.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if n == "clustertest-root000-it000001" {
			d = []byte("rotten")
		}
		if err := corrupted.Put(n, d); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Restore(corrupted, "clustertest")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) != 1 {
		t.Fatalf("problems = %v, want exactly the corrupted object", r.Problems)
	}
	ri := r.Iterations[1]
	if ri == nil || !ri.PayloadMissing || len(ri.Covers) != nodes {
		t.Fatalf("corrupted iteration state wrong: %+v", ri)
	}
	if it, ok := r.LatestComplete(nodes); !ok || it != 0 {
		t.Fatalf("LatestComplete = %d, %v; want 0 (iteration 1 unreadable)", it, ok)
	}
	if r.Iterations[0].PayloadMissing || len(r.Iterations[0].Blocks) != nodes*clients {
		t.Fatal("healthy iteration damaged by the corrupted one")
	}
}

// TestRestoreJobIsolation: a job whose name extends the requested one
// shares the prefix but must not leak into the restore.
func TestRestoreJobIsolation(t *testing.T) {
	store := storage.NewMemory(nil, 4, 1e9)
	put := func(job string, it int, node byte) {
		b := &Batch{Iteration: it, Blocks: []Block{
			{Node: int(node), Source: 0, Variable: "theta", Data: []byte{node}},
		}}
		name := fmt.Sprintf("%s-root000-it%06d", job, it)
		if err := store.Put(name, EncodeBatch(b)); err != nil {
			t.Fatal(err)
		}
		m := newManifest(job, 0, name, b, []int{int(node)}, false)
		if err := store.Put(m.Name(), EncodeManifest(m)); err != nil {
			t.Fatal(err)
		}
	}
	put("exp", 0, 1)
	put("exp-v2", 0, 2) // same iteration, different job, shares the prefix

	r, err := Restore(store, "exp")
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifests != 1 || r.TotalBlocks() != 1 {
		t.Fatalf("restore leaked across jobs: %d manifests, %d blocks", r.Manifests, r.TotalBlocks())
	}
	if blocks := r.NodeBlocks(0); len(blocks[1]) != 1 || len(blocks[2]) != 0 {
		t.Fatalf("wrong job's blocks restored: %v", blocks)
	}
	// The extended job restores independently.
	r2, err := Restore(store, "exp-v2")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Manifests != 1 || len(r2.NodeBlocks(0)[2]) != 1 {
		t.Fatalf("extended job broken: %d manifests", r2.Manifests)
	}
}

// slowStore delays every Get of an iteration-6 object by 2 ms, so with
// several workers the fetches after it in List order finish first.
type slowStore struct{ *storage.Memory }

func (s slowStore) Get(name string) ([]byte, error) {
	if strings.Contains(name, "-it000006") {
		time.Sleep(2 * time.Millisecond)
	}
	return s.Memory.Get(name)
}

// TestRestoreConcurrentMatchesSerial: Restore's fetch workers change
// its speed and nothing else. Over a store of 38 objects holding one
// missing data object, one corrupt manifest and one manifest of a job
// whose name extends the requested one, Restore at GOMAXPROCS 1 and 4
// returns deeply equal results, with Problems in List order.
func TestRestoreConcurrentMatchesSerial(t *testing.T) {
	mem := storage.NewMemory(nil, 4, 1e9)
	put := func(job string, root, it int) {
		b := &Batch{Iteration: it, Blocks: []Block{
			{Node: root, Source: 0, Variable: "theta", Data: payload(root, 0, it)},
			{Node: root + 1, Source: 0, Variable: "theta", Data: payload(root+1, 0, it)},
		}}
		name := fmt.Sprintf("%s-root%03d-it%06d", job, root, it)
		m := newManifest(job, root, name, b, []int{root, root + 1}, root == 2 && it == 3)
		if err := errors.Join(mem.Put(name, EncodeBatch(b)), mem.Put(m.Name(), EncodeManifest(m))); err != nil {
			t.Fatal(err)
		}
	}
	for it := 0; it < 9; it++ {
		put("exp", 0, it)
		put("exp", 2, it)
	}
	put("exp-v2", 0, 0)
	if err := errors.Join(mem.Delete("exp-root000-it000006"),
		mem.Put("exp-root000-it000007-manifest", []byte("not json"))); err != nil {
		t.Fatal(err)
	}
	restore := func(procs int) *Restored {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := Restore(slowStore{mem}, "exp")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, concurrent := restore(1), restore(4)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("GOMAXPROCS 4 restored %+v\nGOMAXPROCS 1 restored %+v", concurrent, serial)
	}
	// The slow iteration-6 fetch finishes last but merges first.
	if p := concurrent.Problems; len(p) != 2 || !strings.Contains(p[0].Error(), "object exp-root000-it000006:") ||
		!strings.Contains(p[1].Error(), "manifest exp-root000-it000007-manifest:") {
		t.Fatalf("problems %v, want the missing object, then the corrupt manifest", p)
	}
	if serial.Manifests != 17 || serial.TotalBlocks() != 32 || len(serial.Iterations) != 9 ||
		!serial.Iterations[6].PayloadMissing || !serial.Iterations[3].Partial {
		t.Fatalf("restored %d manifests, %d blocks, %d iterations; it 6 missing %v, it 3 partial %v",
			serial.Manifests, serial.TotalBlocks(), len(serial.Iterations),
			serial.Iterations[6].PayloadMissing, serial.Iterations[3].Partial)
	}
}

// TestRestoreCompressedStore: a run written through the compression
// pipeline restores exactly like a plain one — byte-identical blocks,
// complete checkpoints — and every data object's stored frame records
// its codec story (name plus raw/encoded sizes).
func TestRestoreCompressedStore(t *testing.T) {
	const nodes, clients, iters = 9, 2, 3
	for _, codec := range []string{"flate", storage.AdaptiveCodec} {
		t.Run(codec, func(t *testing.T) {
			inner := storage.NewMemory(nil, 4, 1e9)
			store := storage.NewCompressing(inner, storage.CompressionOptions{Codec: codec})
			runRestoreWorkload(t, store, nodes, clients, iters, nil)

			r, err := Restore(store, "clustertest")
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Problems) != 0 {
				t.Fatalf("problems restoring a healthy compressed store: %v", r.Problems)
			}
			if got, want := r.TotalBlocks(), nodes*clients*iters; got != want {
				t.Fatalf("recovered %d blocks, want %d", got, want)
			}
			for it := 0; it < iters; it++ {
				ri := r.Iterations[it]
				if ri == nil || !ri.Complete(nodes) {
					t.Fatalf("iteration %d not a complete checkpoint: %+v", it, ri)
				}
				for _, blk := range ri.Blocks {
					if !bytes.Equal(blk.Data, payload(blk.Node, blk.Source, it)) {
						t.Fatalf("iteration %d block (%d,%d) differs after compressed round trip",
							it, blk.Node, blk.Source)
					}
				}
			}

			// Every data object's own frame header records its codec story.
			names, err := store.List("clustertest-")
			if err != nil {
				t.Fatal(err)
			}
			manifests := 0
			for _, name := range names {
				if !IsManifestName(name) {
					continue
				}
				manifests++
				data, err := store.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				m, err := DecodeManifest(data)
				if err != nil {
					t.Fatal(err)
				}
				obj, err := inner.Get(m.Object)
				if err != nil {
					t.Fatal(err)
				}
				h, _, err := storage.ParseFrameHeader(obj)
				if err != nil || h.Codec == "" || h.RawSize <= 0 || h.EncodedSize <= 0 {
					t.Fatalf("%s: stored frame %+v (%v) misses its codec story", m.Object, h, err)
				}
			}
			if manifests == 0 {
				t.Fatal("no manifests found")
			}

			// A fresh reader over the same (inner) store — knowing nothing
			// about how it was written — restores identically through a
			// default decompressing wrapper.
			fresh, err := Restore(storage.NewCompressing(inner, storage.CompressionOptions{}), "clustertest")
			if err != nil {
				t.Fatal(err)
			}
			if fresh.TotalBlocks() != r.TotalBlocks() || len(fresh.Problems) != 0 {
				t.Fatalf("fresh reader recovered %d blocks (%v), want %d",
					fresh.TotalBlocks(), fresh.Problems, r.TotalBlocks())
			}
		})
	}
}

// TestRestoreLargeBlocksChooseDelta: a root object of 128 KiB
// smooth-float blocks reaches the adaptive store as a segment list, each
// block becomes its own element-aligned frame part, and the selector —
// sampling a block, not the headers in front of it — picks delta: the
// store holds under a quarter of the raw bytes and restores byte-exact.
func TestRestoreLargeBlocksChooseDelta(t *testing.T) {
	const nodes, clients, iters, elems = 4, 1, 3, 16 << 10
	cfg, err := meta.ParseString(fmt.Sprintf(`<simulation name="bigblocks">
	  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
	  <data>
	    <parameter name="n" value="%d"/>
	    <layout name="row" type="float64" dimensions="n"/>
	    <variable name="theta" layout="row"/>
	  </data>
	</simulation>`, elems))
	if err != nil {
		t.Fatal(err)
	}
	field := func(node, source, it int) []byte {
		xs := make([]float64, elems)
		for i := range xs {
			v := 280 + 10*float64(node) + 6*math.Sin(float64(i+97*it)/(50+float64(source)))
			xs[i] = math.Round(v*1024) / 1024 // 2^-10 resolution: 18 significant bits
		}
		return compress.Float64Bytes(xs)
	}
	inner := storage.NewMemory(nil, 4, 1e9)
	store := storage.NewCompressing(inner, storage.CompressionOptions{})
	c, err := New(ClusterConfig{Platform: testPlatform(nodes, clients+1), Fanout: 2, Store: store},
		RunSpec{Meta: cfg})
	if err != nil {
		t.Fatal(err)
	}
	derr := Drive(c, Workload{Variable: "theta", To: iters, Payload: field})
	if err := errors.Join(derr, c.Shutdown()); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(store, "bigblocks")
	if err != nil || len(r.Problems) != 0 {
		t.Fatalf("restore: %v, problems %v", err, r.Problems)
	}
	if got, want := r.TotalBlocks(), nodes*clients*iters; got != want {
		t.Fatalf("recovered %d blocks, want %d", got, want)
	}
	for it, ri := range r.Iterations {
		for _, blk := range ri.Blocks {
			if !bytes.Equal(blk.Data, field(blk.Node, blk.Source, it)) {
				t.Fatalf("iteration %d block (%d,%d) differs after restore", it, blk.Node, blk.Source)
			}
		}
	}
	names, err := store.List("bigblocks-")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !IsManifestName(name) {
			continue
		}
		data, err := store.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := inner.Get(m.Object)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := storage.ParseFrameHeader(obj)
		if err != nil || h.Codec != "delta" || h.EncodedSize*4 >= h.RawSize || len(h.Parts) < len(m.Blocks) {
			t.Fatalf("%s: frame %+v (%v), want delta under a quarter, one part per block",
				m.Object, h, err)
		}
	}
	if r.Manifests != iters {
		t.Fatalf("restore consumed %d manifests, want %d", r.Manifests, iters)
	}
}

// TestRestoreCorruptFramedObject: a framed data object damaged at rest
// is reported the same way a missing one is — a problem plus
// PayloadMissing — instead of aborting or panicking.
func TestRestoreCorruptFramedObject(t *testing.T) {
	const nodes, clients, iters = 4, 1, 2
	inner := storage.NewMemory(nil, 4, 1e9)
	store := storage.NewCompressing(inner, storage.CompressionOptions{Codec: "flate"})
	runRestoreWorkload(t, store, nodes, clients, iters, nil)

	names, err := store.List("clustertest-")
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, name := range names {
		if !IsManifestName(name) {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no data object found")
	}
	raw, err := inner.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := inner.Put(victim, raw); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(store, "clustertest")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) == 0 {
		t.Fatal("corrupt framed object produced no problem report")
	}
	found := false
	for _, p := range r.Problems {
		if errors.Is(p, storage.ErrCorruptFrame) {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems %v do not wrap ErrCorruptFrame", r.Problems)
	}
	damaged := 0
	for _, ri := range r.Iterations {
		if ri.PayloadMissing {
			damaged++
		}
	}
	if damaged == 0 {
		t.Fatal("no iteration marked PayloadMissing after corruption")
	}
}
