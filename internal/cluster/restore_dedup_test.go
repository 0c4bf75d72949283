package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
)

// payloadDedup builds the 512-byte block for (node, source, it) of the
// incremental-checkpoint workload: only node 0's source 0 changes
// between iterations, every other block is bit-stable — the
// slowly-changing state a dedup store exists for. The stable content is
// pseudorandom, not a ramp: a low-entropy ramp never trips the rolling
// hash's boundary mask, so the chunker would degenerate to fixed
// Max-size cuts and hide the content-defined behaviour under test.
func payloadDedup(node, source, it int) []byte {
	r := rand.New(rand.NewSource(int64(node)<<16 | int64(source)))
	p := make([]byte, 64*8)
	r.Read(p)
	if node == 0 && source == 0 {
		for i := 0; i < 64; i++ {
			p[i] = byte(it*13 + i)
		}
	}
	return p
}

// runDedupWorkload drives a cluster with the incremental payloads over
// the given store stack and returns its stats.
func runDedupWorkload(t *testing.T, store storage.ObjectStore, nodes, clients, iters, retain int, sched *FailureSchedule) Stats {
	t.Helper()
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Failures: sched,
		Retain:   retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(c, Workload{Variable: "theta", To: iters, Payload: payloadDedup}); err != nil {
		t.Error(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// checkDedupRestore verifies exact non-lost recovery: every restored
// block is byte-identical to what its client wrote, and the recovered
// count matches produced-minus-lost.
func checkDedupRestore(t *testing.T, r *Restored, st Stats, nodes, clients, iters int) {
	t.Helper()
	produced := nodes * clients * iters
	if got, want := r.TotalBlocks(), produced-st.BlocksLost; got != want {
		t.Fatalf("recovered %d blocks, want exactly the non-lost %d (produced %d, lost %d)",
			got, want, produced, st.BlocksLost)
	}
	for it, ri := range r.Iterations {
		for _, blk := range ri.Blocks {
			if !bytes.Equal(blk.Data, payloadDedup(blk.Node, blk.Source, it)) {
				t.Fatalf("iteration %d node %d src %d: payload corrupted through the dedup stack",
					it, blk.Node, blk.Source)
			}
		}
	}
}

// TestRestoreDedupMatrix is the dedup round-trip matrix: chunk store
// over {memory, sdf}, with and without the compression pipeline in
// between, with and without a mid-run node failure. Every cell must
// recover exactly the non-lost blocks byte-identical, and the stream
// must actually have deduplicated.
func TestRestoreDedupMatrix(t *testing.T) {
	const nodes, clients, iters, failAt = 9, 2, 4, 2
	for _, backend := range []string{"memory", "sdf"} {
		for _, codec := range []string{"", "adaptive"} {
			for _, fail := range []bool{false, true} {
				name := fmt.Sprintf("%s/codec=%s/fail=%v", backend, codec, fail)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					build := func() (storage.Backend, error) {
						var base storage.Backend
						var err error
						switch backend {
						case "memory":
							base = storage.NewMemory(nil, 4, 1e9)
						case "sdf":
							base, err = storage.NewSDF(nil, 4, 1e9, dir)
						}
						if err != nil {
							return nil, err
						}
						if codec != "" {
							base = storage.NewCompressing(base, storage.CompressionOptions{Codec: codec})
						}
						return base, nil
					}
					inner, err := build()
					if err != nil {
						t.Fatal(err)
					}
					st := chunk.New(inner, chunk.Options{})
					var sched *FailureSchedule
					if fail {
						sched = NewFailureSchedule().Add(1, failAt)
					}
					stats := runDedupWorkload(t, st, nodes, clients, iters, 0, sched)
					if fail && stats.BlocksLost == 0 {
						t.Fatal("failure cell needs actual loss")
					}

					acc := st.Accounting()
					if acc.ChunksDeduped == 0 || acc.DedupBytesSaved <= 0 {
						t.Fatalf("no dedup happened: %+v", acc)
					}
					if !fail && acc.DedupBytesSaved <= float64(acc.ObjectBytes) {
						t.Fatalf("incremental workload deduped %.0f bytes vs %d stored — expected most of the stream to repeat",
							acc.DedupBytesSaved, acc.ObjectBytes)
					}

					// Restore through the same stack.
					r, err := Restore(st, "clustertest")
					if err != nil {
						t.Fatal(err)
					}
					if len(r.Problems) != 0 {
						t.Fatalf("restore problems: %v", r.Problems)
					}
					checkDedupRestore(t, r, stats, nodes, clients, iters)

					// SDF persists: a fresh stack over the same directory (a
					// restarted process with empty indexes) must restore too.
					if backend == "sdf" {
						freshInner, err := build()
						if err != nil {
							t.Fatal(err)
						}
						fresh := chunk.New(freshInner, chunk.Options{})
						r2, err := Restore(fresh, "clustertest")
						if err != nil {
							t.Fatal(err)
						}
						if len(r2.Problems) != 0 {
							t.Fatalf("fresh-process restore problems: %v", r2.Problems)
						}
						checkDedupRestore(t, r2, stats, nodes, clients, iters)
					}
				})
			}
		}
	}
}

// TestManifestsIdenticalAcrossStacks pins what a manifest is: a record
// of what the cluster decided, nothing about how the store laid the
// bytes down. One lockstep workload over memory, memory+codec,
// memory+dedup and memory+codec+dedup must leave byte-identical
// manifests (read back through each stack) under the same names.
func TestManifestsIdenticalAcrossStacks(t *testing.T) {
	const nodes, clients, iters = 9, 2, 3
	manifests := func(codec string, dedup *chunk.Options) map[string][]byte {
		store, err := chunk.Stack(storage.NewMemory(nil, 4, 1e9), codec, dedup)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(ClusterConfig{
			Platform: testPlatform(nodes, clients+1),
			Fanout:   2,
			Store:    store,
		}, RunSpec{Meta: testMeta(t)})
		if err != nil {
			t.Fatal(err)
		}
		err = Drive(c, Workload{Variable: "theta", To: iters, Payload: payloadDedup,
			EachIteration: func(int) error { return nil }})
		if err != nil {
			t.Error(err)
		}
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
		names, err := store.List("clustertest-")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, n := range names {
			if !IsManifestName(n) {
				continue
			}
			if out[n], err = store.Get(n); err != nil {
				t.Fatal(err)
			}
		}
		if len(out) == 0 {
			t.Fatalf("codec=%q dedup=%v stored no manifests", codec, dedup != nil)
		}
		return out
	}
	want := manifests("", nil)
	for _, stack := range []struct {
		codec string
		dedup *chunk.Options
	}{
		{storage.AdaptiveCodec, nil},
		{"", &chunk.Options{}},
		{storage.AdaptiveCodec, &chunk.Options{}},
	} {
		got := manifests(stack.codec, stack.dedup)
		if len(got) != len(want) {
			t.Fatalf("codec=%q dedup=%v: %d manifests, plain store has %d",
				stack.codec, stack.dedup != nil, len(got), len(want))
		}
		for n, w := range want {
			if !bytes.Equal(got[n], w) {
				t.Fatalf("codec=%q dedup=%v: manifest %s differs from the plain store's\n got %s\nwant %s",
					stack.codec, stack.dedup != nil, n, got[n], w)
			}
		}
	}
}

// TestRestoreDedupRetainSweep: a run with a retention window releases
// aged iterations; after a GC sweep the retained window must restore
// byte-identical — sweeping past N earlier iterations never breaks a
// retained one, because shared chunks survive while their referencing
// manifests live.
func TestRestoreDedupRetainSweep(t *testing.T) {
	const nodes, clients, iters, retain = 9, 2, 6, 2
	st := chunk.New(storage.NewMemory(nil, 4, 1e9), chunk.Options{})
	stats := runDedupWorkload(t, st, nodes, clients, iters, retain, nil)
	if stats.ObjectsReleased == 0 {
		t.Fatal("retention released nothing")
	}
	swept, err := st.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if swept.Objects == 0 || swept.Chunks == 0 {
		t.Fatalf("sweep reclaimed nothing after %d releases: %+v", stats.ObjectsReleased, swept)
	}

	r, err := Restore(st, "clustertest")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) != 0 {
		t.Fatalf("restore problems after sweep: %v", r.Problems)
	}
	// The retained window — the last `retain` iterations — is fully
	// recoverable; everything older was collected.
	if it, ok := r.LatestComplete(nodes); !ok || it != iters-1 {
		t.Fatalf("LatestComplete = %d, %v; want %d", it, ok, iters-1)
	}
	for it := iters - retain; it < iters; it++ {
		ri := r.Iterations[it]
		if ri == nil || !ri.Complete(nodes) {
			t.Fatalf("retained iteration %d not fully recoverable after sweep", it)
		}
		for _, blk := range ri.Blocks {
			if !bytes.Equal(blk.Data, payloadDedup(blk.Node, blk.Source, it)) {
				t.Fatalf("retained iteration %d: block corrupted after sweep", it)
			}
		}
	}
	for it := 0; it < iters-retain; it++ {
		if _, ok := r.Iterations[it]; ok {
			t.Fatalf("released iteration %d survived the sweep", it)
		}
	}
}

// dedupRestoreBudget holds a dedup restore to what it restores. reads
// is object bytes read per restored byte: the packs' chunk runs, plus
// recipes, manifests and, in a fresh process, the pack indexes; a
// Get that fetched every pack it touched whole read about 1.4 here.
// allocs is heap bytes allocated per restored byte, a ceiling just
// above the count measured when it was set: 1.17 through the writing
// stack, 1.26 in a fresh process, which also loads the pack indexes
// (2.7 with the whole-pack Get).
var dedupRestoreBudget = struct{ reads, allocs float64 }{1.1, 1.35}

// rewriteBlocks is the content of the ckpt-dedup benchmark workload at
// toy scale: incompressible blocks, a quarter of them drawn fresh each
// iteration after the first, the rest bit-identical to the iteration
// before. blocks[it][node*clients+source] is one block.
func rewriteBlocks(nodes, clients, iters, size int) [][][]byte {
	r := rand.New(rand.NewSource(2013))
	n := nodes * clients
	blocks := make([][][]byte, iters)
	for it := range blocks {
		blocks[it] = make([][]byte, n)
		fresh := r.Perm(n)
		if it > 0 {
			fresh = fresh[:n/4]
			copy(blocks[it], blocks[it-1])
		}
		for _, i := range fresh {
			blocks[it][i] = make([]byte, size)
			r.Read(blocks[it][i])
		}
	}
	return blocks
}

// getWrapper is the shape of a wrapper that instruments Get alone over
// any store (the benchmark's timed base is one): it embeds
// storage.Backend and overrides Get, so every other face — ReadRanges
// included — is the wrapped store's.
type getWrapper struct{ storage.Backend }

func (w getWrapper) Get(name string) ([]byte, error) { return w.Backend.Get(name) }

// TestDedupRestoreReadBudget restores a toy store of the ckpt-dedup
// shape — 2 roots, 4 iterations, a quarter of the blocks rewritten per
// iteration, the chunk store over SDF — through the writing stack,
// through a fresh process's read stack, and through a read stack over
// a getWrapper, and holds all three to dedupRestoreBudget: a restore
// reads about what it restores from the store, not every pack it
// touches whole, and allocates about its output.
func TestDedupRestoreReadBudget(t *testing.T) {
	const nodes, clients, iters, blockBytes = 8, 2, 4, 32 << 10
	cfg, err := meta.ParseString(fmt.Sprintf(`<simulation name="clustertest">
	  <architecture><dedicated cores="1"/><buffer size="%d"/></architecture>
	  <data>
	    <parameter name="n" value="%d"/>
	    <layout name="row" type="float64" dimensions="n"/>
	    <variable name="theta" layout="row"/>
	  </data>
	</simulation>`, 4*blockBytes*clients, blockBytes/8))
	if err != nil {
		t.Fatal(err)
	}
	blocks := rewriteBlocks(nodes, clients, iters, blockBytes)
	dir := t.TempDir()
	base, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := chunk.New(base, chunk.Options{})
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    2,
		Store:    st,
	}, RunSpec{Meta: cfg})
	if err != nil {
		t.Fatal(err)
	}
	err = Drive(c, Workload{Variable: "theta", To: iters, Payload: func(node, source, it int) []byte {
		return blocks[it][node*clients+source]
	}})
	if err != nil {
		t.Error(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if acc := st.Accounting(); acc.ChunksDeduped == 0 {
		t.Fatalf("nothing deduplicated: %+v", acc)
	}
	fresh, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name   string
		base   storage.Backend
		reader storage.ObjectReader
	}{
		{"writer", base, st},
		{"fresh", fresh, chunk.ReadStack(fresh)},
		{"wrapped", fresh, chunk.ReadStack(getWrapper{fresh})},
	} {
		t.Run(leg.name, func(t *testing.T) {
			read0 := leg.base.Accounting().ObjectReadBytes
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r, err := Restore(leg.reader, "clustertest")
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Problems) != 0 {
				t.Fatalf("restore problems: %v", r.Problems)
			}
			restored := 0
			for it, ri := range r.Iterations {
				for _, b := range ri.Blocks {
					if !bytes.Equal(b.Data, blocks[it][b.Node*clients+b.Source]) {
						t.Fatalf("iteration %d node %d source %d: restored bytes differ", it, b.Node, b.Source)
					}
					restored += len(b.Data)
				}
			}
			if want := nodes * clients * iters * blockBytes; restored != want {
				t.Fatalf("restored %d block bytes, want %d", restored, want)
			}
			reads := float64(leg.base.Accounting().ObjectReadBytes-read0) / float64(restored)
			allocs := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(restored)
			t.Logf("%.3f object bytes read and %.3f heap bytes allocated per restored byte", reads, allocs)
			if reads > dedupRestoreBudget.reads {
				t.Errorf("%.3f object bytes read per restored byte, ceiling %.2f", reads, dedupRestoreBudget.reads)
			}
			if allocs > dedupRestoreBudget.allocs {
				t.Errorf("%.3f heap bytes allocated per restored byte, ceiling %.2f", allocs, dedupRestoreBudget.allocs)
			}
		})
	}
}
