package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
)

// paramSets are the chunk parameters TestChunkSplitGolden pins,
// min-below-window (Min shorter than the rolling window) included.
var paramSets = []Params{
	{},
	{Min: 256, Avg: 1024, Max: 4096},
	{Min: 16, Avg: 64, Max: 256},
	{Min: 512, Avg: 4096, Max: 4096},
}

// cutAt splits data into segments of the given lengths; the last
// segment takes whatever the lengths leave over.
func cutAt(data []byte, lens []int) [][]byte {
	var segs [][]byte
	for _, n := range lens {
		n = min(n, len(data))
		segs = append(segs, data[:n])
		data = data[n:]
	}
	return append(segs, data)
}

// segmentLens draws a random segmentation of about size bytes whose
// edges fall on the lengths a walk must get right: empty and 1-byte
// segments, segments shorter than the window, and segments ending just
// before and after Min and Max.
func segmentLens(r *rand.Rand, p Params, size int) []int {
	p = p.withDefaults()
	picks := []int{0, 1, 2, chunkWindow - 1, chunkWindow, chunkWindow + 1,
		p.Min - 1, p.Min, p.Min + 1, p.Max - 1, p.Max, p.Max + 1}
	var lens []int
	for n := 0; n < size; {
		l := picks[r.Intn(len(picks))]
		if r.Intn(3) == 0 {
			l = r.Intn(3 * p.Max)
		}
		lens = append(lens, l)
		n += l
	}
	return lens
}

// walkChunks collects walk's chunks of segs, copied out of any bridge.
func walkChunks(segs [][]byte, p Params) [][]byte {
	var chunks [][]byte
	walk(segs, p.withDefaults(), func(c []byte) { chunks = append(chunks, bytes.Clone(c)) })
	return chunks
}

// innerObjects returns every object on mem by name.
func innerObjects(t *testing.T, mem *storage.Memory) map[string][]byte {
	t.Helper()
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string][]byte{}
	for _, n := range names {
		if objs[n], err = mem.Get(n); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

// TestPutVecMatchesPut: PutVec of a segment list and Put of its
// flattened bytes leave byte-identical inner objects — the same packs,
// indexes and recipes — under every pinned parameter set and over
// random segmentations. The payload repeats a span (hits inside one
// Put) and the second object edits the first (hits against the first
// Put's pack), so the pack is cut from runs of new and known chunks.
func TestPutVecMatchesPut(t *testing.T) {
	r := rand.New(rand.NewSource(2013))
	for pi, p := range paramSets {
		for trial := 0; trial < 8; trial++ {
			size := 4*p.withDefaults().Max + r.Intn(16<<10)
			data := payload(int64(trial), size)
			copy(data[size/2:], data[:size/4])
			edited := bytes.Clone(data)
			copy(edited[size/3:], payload(int64(trial+100), size/8))

			vecMem, flatMem := newMem(), newMem()
			vec, flat := New(vecMem, Options{Params: p}), New(flatMem, Options{Params: p})
			for i, obj := range [][]byte{data, edited} {
				name := fmt.Sprintf("obj-%d", i)
				segs := cutAt(obj, segmentLens(r, p, size))
				if got, want := walkChunks(segs, p), Split(obj, p); !equalChunks(got, want) {
					t.Fatalf("params %d trial %d object %d: walk over %d segments cut %d chunks, Split %d",
						pi, trial, i, len(segs), len(got), len(want))
				}
				if err := vec.PutVec(name, segs); err != nil {
					t.Fatal(err)
				}
				if err := flat.Put(name, storage.FlattenSegs(segs)); err != nil {
					t.Fatal(err)
				}
			}
			vecObjs, flatObjs := innerObjects(t, vecMem), innerObjects(t, flatMem)
			if len(vecObjs) != len(flatObjs) {
				t.Fatalf("params %d trial %d: %d inner objects after PutVec, %d after Put",
					pi, trial, len(vecObjs), len(flatObjs))
			}
			for n, want := range flatObjs {
				if got, ok := vecObjs[n]; !ok || !bytes.Equal(got, want) {
					t.Fatalf("params %d trial %d: inner object %s differs (present %v)", pi, trial, n, ok)
				}
			}
		}
	}
}

// equalChunks reports whether two chunk lists hold the same bytes.
func equalChunks(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestDedupStorePutVecOwnsItsBytes: the store owns what PutVec stored
// once it returns — scribbling over the caller's segments afterwards
// changes nothing Get returns, over a Memory and an SDF inner store.
func TestDedupStorePutVecOwnsItsBytes(t *testing.T) {
	sdfStore, err := storage.NewSDF(nil, 4, 1e9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []storage.Backend{newMem(), sdfStore} {
		st := New(inner, Options{})
		data := payload(5, 96<<10)
		want := bytes.Clone(data)
		segs := cutAt(data, []int{30, 40 << 10, 31, 1, 0, 20 << 10})
		if err := st.PutVec("obj", segs); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 0xaa
		}
		got, err := st.Get("obj")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get after the caller reused its segments differs (err %v)", inner.Name(), err)
		}
	}
}

// batchSegs lays payloads out the way a cluster root hands a batch to
// its store: a header of about 30 bytes before each payload.
func batchSegs(payloads [][]byte, tag int) [][]byte {
	segs := make([][]byte, 0, 2*len(payloads))
	for i, p := range payloads {
		segs = append(segs, fmt.Appendf(nil, "blk %06d it %06d len %08d", i, tag, len(p)), p)
	}
	return segs
}

// TestDedupStoreConcurrentPutVec is the two-root ckpt-dedup shape:
// two goroutines PutVec batch-shaped objects into one store, sharing
// three quarters of their payloads, and every object then reads back
// byte-exact. make race-stress runs it under -race.
func TestDedupStoreConcurrentPutVec(t *testing.T) {
	st := New(newMem(), Options{})
	shared := make([][]byte, 12)
	for i := range shared {
		shared[i] = payload(int64(i), 16<<10)
	}
	const roots, rounds = 2, 4
	objects := func(root, round int) [][]byte {
		ps := make([][]byte, 0, 16)
		ps = append(ps, shared...)
		for i := 0; i < 4; i++ {
			ps = append(ps, payload(int64(1000*root+10*round+i), 16<<10))
		}
		return ps
	}
	var wg sync.WaitGroup
	errc := make(chan error, roots)
	for root := 0; root < roots; root++ {
		wg.Add(1)
		go func(root int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				name := fmt.Sprintf("root%d-it%06d", root, round)
				if err := st.PutVec(name, batchSegs(objects(root, round), round)); err != nil {
					errc <- err
					return
				}
			}
		}(root)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for root := 0; root < roots; root++ {
		for round := 0; round < rounds; round++ {
			name := fmt.Sprintf("root%d-it%06d", root, round)
			got, err := st.Get(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := storage.FlattenSegs(batchSegs(objects(root, round), round)); !bytes.Equal(got, want) {
				t.Fatalf("%s: read back differs from what was stored", name)
			}
		}
	}
	if acc := st.Accounting(); acc.ChunksDeduped == 0 {
		t.Fatalf("objects sharing three quarters of their payloads deduplicated nothing: %+v", acc)
	}
}

// TestDedupStoreGetLocatesBeforeAllocating: a 48-byte recipe declaring
// one chunk of nearly 4 GiB is a typed error, and Get allocates next
// to nothing before returning it — both when the chunk is unknown
// (ErrDanglingChunk) and when its hash names a stored chunk of another
// size (ErrCorruptRecipe), in the writing process and in a fresh one.
func TestDedupStoreGetLocatesBeforeAllocating(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	data := payload(9, 16<<10)
	if err := st.Put("real", data); err != nil {
		t.Fatal(err)
	}
	stored := sha256.Sum256(Split(data, Params{})[0])
	for _, c := range []struct {
		sum  digest
		want error
	}{{digest{1, 2, 3}, ErrDanglingChunk}, {stored, ErrCorruptRecipe}} {
		recipe, err := encodeRecipe([]entry{{sum: c.sum, size: math.MaxUint32}})
		if err != nil || len(recipe) != 48 {
			t.Fatalf("crafted recipe: %d bytes (err %v)", len(recipe), err)
		}
		if err := mem.Put("crafted", recipe); err != nil {
			t.Fatal(err)
		}
		for _, reader := range []*Store{st, New(mem, Options{})} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := reader.Get("crafted")
			runtime.ReadMemStats(&after)
			if !errors.Is(err, c.want) {
				t.Fatalf("crafted recipe: got %v, want %v", err, c.want)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
				t.Fatalf("Get allocated %d bytes before rejecting a crafted recipe", grown)
			}
		}
	}
	// Retaining the crafted recipe counts its chunk but leaves the size
	// the pack index gave it, so the object that really holds the chunk
	// still reads back.
	if err := st.Retain("crafted"); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get("real"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after retaining a crafted recipe: %v", err)
	}
}

// BenchmarkStorePutVec is the chunk store's steady state on the
// ckpt-dedup object shape: an 8 MiB batch of 128 KiB payloads behind
// 30-byte headers, PutVec over a Memory store, a quarter of the
// payloads rewritten before each op. The sweep that keeps the store
// from growing runs off the clock.
func BenchmarkStorePutVec(b *testing.B) {
	const n, size = 64, 128 << 10
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = payload(int64(i), size)
	}
	st := New(newMem(), Options{})
	if err := st.PutVec("batch", batchSegs(payloads, 0)); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.SetBytes(n * size)
	b.ReportAllocs()
	b.ResetTimer()
	for op := 1; op <= b.N; op++ {
		b.StopTimer()
		for i := op % 4; i < n; i += 4 {
			r.Read(payloads[i])
		}
		segs := batchSegs(payloads, op)
		b.StartTimer()
		if err := st.PutVec("batch", segs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := st.Sweep(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
