package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/topology"
)

func newMem() *storage.Memory { return storage.NewMemory(nil, 4, 1e9) }

// TestDedupStoreRoundTrip: a chunked object reads back byte-identical,
// and re-storing an edited copy pays only for the changed chunks.
func TestDedupStoreRoundTrip(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	data := payload(42, 64<<10)
	if err := st.Put("obj-it000001", data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("obj-it000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	recipe, err := mem.Get("obj-it000001")
	if err != nil {
		t.Fatal(err)
	}
	chunks, rawSize, err := DecodeRecipe(recipe)
	if err != nil || chunks < 2 || rawSize != int64(len(data)) {
		t.Fatalf("expected a multi-chunk recipe of %d bytes, got %d chunks, %d bytes (err %v)",
			len(data), chunks, rawSize, err)
	}
	first := st.Accounting()
	if first.ChunksStored != chunks || first.ChunksDeduped != 0 {
		t.Fatalf("first store should be all-new: %+v", first)
	}

	// Overwrite a quarter of the payload and store it as the next
	// iteration: at least half the volume must dedup.
	edited := append([]byte(nil), data...)
	copy(edited[8<<10:], payload(43, 16<<10))
	if err := st.Put("obj-it000002", edited); err != nil {
		t.Fatal(err)
	}
	acc := st.Accounting()
	if fresh := acc.ObjectBytes - first.ObjectBytes; fresh >= int64(len(edited))/2 {
		t.Fatalf("25%% overwrite stored %d of %d bytes new — dedup not working", fresh, len(edited))
	}
	if acc.ChunksDeduped == 0 || acc.DedupBytesSaved <= 0 {
		t.Fatalf("dedup counters empty: %+v", acc)
	}
	got2, err := st.Get("obj-it000002")
	if err != nil || !bytes.Equal(got2, edited) {
		t.Fatalf("edited round trip mismatch (err %v)", err)
	}
}

// TestDedupStorePassThrough: small objects are stored raw (still
// registered for retention), and List hides the chunk namespace.
func TestDedupStorePassThrough(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	small := []byte("a tiny manifest payload")
	if err := st.Put("job-manifest", small); err != nil {
		t.Fatal(err)
	}
	if acc := st.Accounting(); acc.ChunksStored != 0 {
		t.Fatalf("pass-through object stored %d chunks", acc.ChunksStored)
	}
	raw, err := mem.Get("job-manifest")
	if err != nil || !bytes.Equal(raw, small) {
		t.Fatalf("pass-through object should land unchunked (err %v)", err)
	}
	if err := st.Put("big", payload(1, 32<<10)); err != nil {
		t.Fatal(err)
	}
	names, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if len(n) >= 6 && n[:6] == "chunk/" {
			t.Fatalf("List leaked internal chunk object %q", n)
		}
	}
	if inner, _ := mem.List("chunk/"); len(inner) != 2 {
		t.Fatalf("want one pack and its index on the inner backend, got %v", inner)
	}
}

// TestDedupStoreRecipeMagicPayload: a small payload that happens to
// start with the recipe magic must not be passed through raw (Get would
// misparse it) — the store chunks it instead and it round-trips.
func TestDedupStoreRecipeMagicPayload(t *testing.T) {
	st := New(newMem(), Options{})
	tricky := append([]byte("DCK1"), payload(5, 100)...)
	if err := st.Put("tricky", tricky); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("tricky")
	if err != nil || !bytes.Equal(got, tricky) {
		t.Fatalf("recipe-magic payload did not round-trip (err %v)", err)
	}
}

// TestDedupStoreRetainReleaseSweep: releasing an object makes the next
// sweep collect it and exactly the chunks no live object still
// references; retained objects keep every chunk they need.
func TestDedupStoreRetainReleaseSweep(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	base := payload(9, 48<<10)
	edited := append([]byte(nil), base...)
	copy(edited[4<<10:], payload(10, 8<<10))
	if err := st.Put("it1", base); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("it2", edited); err != nil {
		t.Fatal(err)
	}
	if err := st.Release("it1"); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 1 {
		t.Fatalf("sweep collected %d objects, want 1", stats.Objects)
	}
	if stats.Chunks == 0 {
		t.Fatal("sweep freed no chunks although it1 had unique ones")
	}
	if _, err := st.Get("it1"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("swept object still readable (err %v)", err)
	}
	got, err := st.Get("it2")
	if err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("retained object broken after sweep (err %v)", err)
	}
	// Releasing the survivor frees everything.
	if err := st.Release("it2"); err != nil {
		t.Fatal(err)
	}
	if stats, err = st.Sweep(); err != nil {
		t.Fatal(err)
	}
	left, _ := mem.List("chunk/")
	if len(left) != 0 {
		t.Fatalf("%d chunks left after everything was released", len(left))
	}
	if stats.Chunks == 0 || stats.BytesFreed == 0 {
		t.Fatalf("last sweep freed nothing: %+v", stats)
	}
}

// TestDedupStoreResurrection: a released object survives if it is
// retained again before any sweep runs.
func TestDedupStoreResurrection(t *testing.T) {
	st := New(newMem(), Options{})
	data := payload(11, 16<<10)
	if err := st.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if err := st.Release("obj"); err != nil {
		t.Fatal(err)
	}
	if err := st.Retain("obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Sweep(); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("resurrected object broken (err %v)", err)
	}
}

// TestDedupStoreRetainFreshProcess: a second store over the same
// backend (a restarted process with an empty index) can retain an
// object it never stored, and its sweep then protects that object's
// chunks while collecting everything else.
func TestDedupStoreRetainFreshProcess(t *testing.T) {
	mem := newMem()
	first := New(mem, Options{})
	keep := payload(12, 32<<10)
	drop := payload(13, 32<<10)
	if err := first.Put("keep", keep); err != nil {
		t.Fatal(err)
	}
	if err := first.Put("drop", drop); err != nil {
		t.Fatal(err)
	}

	second := New(mem, Options{})
	if err := second.Retain("keep"); err != nil {
		t.Fatal(err)
	}
	// The fresh index never saw "drop": its sweep collects only chunks
	// it knows to be garbage, which is none — so "drop" survives too.
	// But after the fresh process retains and releases it, it goes.
	if err := second.Retain("drop"); err != nil {
		t.Fatal(err)
	}
	if err := second.Release("drop"); err != nil {
		t.Fatal(err)
	}
	if err := second.Release("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Sweep(); err != nil {
		t.Fatal(err)
	}
	got, err := second.Get("keep")
	if err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("retained object broken after fresh-process sweep (err %v)", err)
	}
	if _, err := second.Get("drop"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("released object still readable in fresh process (err %v)", err)
	}
}

// onePack returns the names of the only pack on inner and its index.
func onePack(t *testing.T, inner storage.ObjectReader) (pack, index string) {
	t.Helper()
	indexes, err := indexNames(inner)
	if err != nil || len(indexes) != 1 {
		t.Fatalf("want exactly one pack, got %v (err %v)", indexes, err)
	}
	return packOf(indexes[0]), indexes[0]
}

// packCount returns how many packs inner holds.
func packCount(t *testing.T, inner storage.ObjectReader) int {
	t.Helper()
	indexes, err := indexNames(inner)
	if err != nil {
		t.Fatal(err)
	}
	return len(indexes)
}

// TestDedupStoreDanglingChunk: a recipe whose pack, or whose pack's
// index, was deleted behind the store's back surfaces ErrDanglingChunk,
// not garbage data — in the process that wrote it and in a fresh one
// that must locate the chunks from the indexes. A lost index loses only
// locations, which the writing process still holds.
func TestDedupStoreDanglingChunk(t *testing.T) {
	for _, victim := range []string{"pack", "index"} {
		t.Run(victim, func(t *testing.T) {
			mem := newMem()
			st := New(mem, Options{})
			data := payload(14, 16<<10)
			if err := st.Put("obj", data); err != nil {
				t.Fatal(err)
			}
			pack, index := onePack(t, mem)
			name := pack
			if victim == "index" {
				name = index
			}
			if err := mem.Delete(name); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get("obj")
			switch victim {
			case "pack":
				if !errors.Is(err, ErrDanglingChunk) {
					t.Fatalf("want ErrDanglingChunk, got %v", err)
				}
			case "index":
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("writer lost a location it holds (err %v)", err)
				}
			}
			if _, err := New(mem, Options{}).Get("obj"); !errors.Is(err, ErrDanglingChunk) {
				t.Fatalf("fresh process: want ErrDanglingChunk, got %v", err)
			}
		})
	}
}

// TestDedupStoreCorruptChunk: a pack whose bytes no longer match its
// index — one byte flipped, or cut short — is rejected with
// ErrCorruptRecipe, not silently reassembled, in the writing process
// and in a fresh one.
func TestDedupStoreCorruptChunk(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"flipped":   func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-100] },
	}
	for how, f := range damage {
		t.Run(how, func(t *testing.T) {
			mem := newMem()
			st := New(mem, Options{})
			if err := st.Put("obj", payload(15, 16<<10)); err != nil {
				t.Fatal(err)
			}
			pack, _ := onePack(t, mem)
			raw, err := mem.Get(pack)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Put(pack, f(raw)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get("obj"); !errors.Is(err, ErrCorruptRecipe) {
				t.Fatalf("want ErrCorruptRecipe, got %v", err)
			}
			if _, err := New(mem, Options{}).Get("obj"); !errors.Is(err, ErrCorruptRecipe) {
				t.Fatalf("fresh process: want ErrCorruptRecipe, got %v", err)
			}
		})
	}
}

// innerBytes sums the sizes of the objects named by names on mem.
func innerBytes(t *testing.T, mem *storage.Memory, names []string) int64 {
	t.Helper()
	var n int64
	for _, name := range names {
		b, err := mem.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(b))
	}
	return n
}

// checkPacksHoldOnly asserts that the packs on mem hold exactly the
// distinct chunks of the live objects — no unreferenced chunk's bytes
// remain, none is stored twice — and that every pack matches its index.
func checkPacksHoldOnly(t *testing.T, mem *storage.Memory, live ...[]byte) {
	t.Helper()
	want := map[digest]bool{}
	var wantBytes int64
	for _, data := range live {
		for _, p := range Split(data, Params{}) {
			if d := digest(sha256.Sum256(p)); !want[d] {
				want[d] = true
				wantBytes += int64(len(p))
			}
		}
	}
	indexes, err := indexNames(mem)
	if err != nil {
		t.Fatal(err)
	}
	held := map[digest]bool{}
	var packs []string
	for _, name := range indexes {
		pack := packOf(name)
		packs = append(packs, pack)
		obj, err := mem.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ents, raw, err := decodeRecipe(obj)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !want[e.sum] || held[e.sum] {
				t.Fatalf("pack %s holds chunk %x: live=%v, already held=%v", pack, e.sum, want[e.sum], held[e.sum])
			}
			held[e.sum] = true
		}
		if got := innerBytes(t, mem, []string{pack}); got != raw {
			t.Fatalf("pack %s is %d bytes, its index says %d", pack, got, raw)
		}
	}
	if len(held) != len(want) {
		t.Fatalf("packs hold %d of the %d live chunks", len(held), len(want))
	}
	if got := innerBytes(t, mem, packs); got != wantBytes {
		t.Fatalf("packs hold %d bytes, live chunks are %d", got, wantBytes)
	}
}

// TestDedupStoreSweepCompactsPacks: after releases and a sweep, a pack
// whose chunks all died is gone, a pack with some dead chunks is
// rewritten without them, and the inner store shrinks by exactly the
// swept recipes, BytesFreed and the index entries that went with them.
// The survivor restores byte-exact in this process and in a fresh one.
func TestDedupStoreSweepCompactsPacks(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	base := payload(20, 48<<10)
	edit := func(seed int64) []byte {
		b := append([]byte(nil), base...)
		copy(b[16<<10:], payload(seed, 8<<10))
		return b
	}
	objs := map[string][]byte{"it1": base, "it2": edit(21), "it3": edit(22)}
	for _, name := range []string{"it1", "it2", "it3"} {
		if err := st.Put(name, objs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if n := packCount(t, mem); n != 3 {
		t.Fatalf("three Puts of new chunks wrote %d packs", n)
	}
	indexes0, _ := indexNames(mem)
	idxBytes0 := innerBytes(t, mem, indexes0)
	recipes := innerBytes(t, mem, []string{"it1", "it2"})
	before := mem.Accounting().ObjectBytes
	for _, name := range []string{"it1", "it2"} {
		if err := st.Release(name); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := st.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 2 || stats.Chunks == 0 {
		t.Fatalf("sweep reclaimed %+v", stats)
	}
	// it2's pack is all dead; it1's keeps the chunks it3 shares.
	if n := packCount(t, mem); n != 2 {
		t.Fatalf("%d packs left, want it1's compacted one and it3's", n)
	}
	checkPacksHoldOnly(t, mem, objs["it3"])
	indexes1, _ := indexNames(mem)
	idxShrink := idxBytes0 - innerBytes(t, mem, indexes1)
	if drop := before - mem.Accounting().ObjectBytes; drop != recipes+stats.BytesFreed+idxShrink {
		t.Fatalf("inner store shrank by %d, want recipes %d + freed %d + index shrink %d",
			drop, recipes, stats.BytesFreed, idxShrink)
	}
	for _, st := range []*Store{st, New(mem, Options{})} {
		if got, err := st.Get("it3"); err != nil || !bytes.Equal(got, objs["it3"]) {
			t.Fatalf("survivor broken after compaction (err %v)", err)
		}
	}
}

// TestDedupStoreFreshSweepKeepsUntracked: a fresh process that counts
// one object down to zero compacts the packs it shares with objects it
// never retained — their chunks are untracked, so they are copied, not
// collected — and everything it did not count still restores.
func TestDedupStoreFreshSweepKeepsUntracked(t *testing.T) {
	mem := newMem()
	a, b := payload(30, 32<<10), payload(31, 32<<10)
	first := New(mem, Options{})
	// "x" puts the chunks of both "keep" and "drop" into one pack.
	for _, o := range []struct {
		name string
		data []byte
	}{{"x", append(append([]byte(nil), a...), b...)}, {"keep", a}, {"drop", b}} {
		if err := first.Put(o.name, o.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Release("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Sweep(); err != nil {
		t.Fatal(err)
	}
	checkPacksHoldOnly(t, mem, a, b)

	second := New(mem, Options{})
	if err := second.Retain("drop"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := second.Release("drop"); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := second.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 1 || stats.Chunks == 0 {
		t.Fatalf("fresh sweep reclaimed %+v", stats)
	}
	checkPacksHoldOnly(t, mem, a)
	for _, st := range []*Store{second, New(mem, Options{})} {
		if got, err := st.Get("keep"); err != nil || !bytes.Equal(got, a) {
			t.Fatalf("untracked object broken by a fresh sweep (err %v)", err)
		}
		if _, err := st.Get("drop"); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("released object still readable (err %v)", err)
		}
	}
}

// rangeBase is an inner store with every face the dedup store uses:
// Memory and SDF are both one.
type rangeBase interface {
	storage.Backend
	storage.ObjectDeleter
	storage.RangeReader
}

// packStoreKinds are the inner stores the pack-read races run over.
var packStoreKinds = []string{"memory", "sdf"}

// newPackStore builds an empty inner store of one of packStoreKinds.
func newPackStore(t *testing.T, kind string) rangeBase {
	t.Helper()
	if kind == "memory" {
		return newMem()
	}
	sdfStore, err := storage.NewSDF(nil, 4, 1e9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return sdfStore
}

// sweepOnPackGet runs fn the first time a pack is fetched, whole or by
// ranges, before the fetch — the window in which Get has located its
// chunks but not yet read them. fn may fetch packs itself (a sweep
// does).
type sweepOnPackGet struct {
	rangeBase
	fn func()
}

func (m *sweepOnPackGet) hook(name string) {
	if fn := m.fn; fn != nil && strings.HasSuffix(name, packSuffix) {
		m.fn = nil
		fn()
	}
}

func (m *sweepOnPackGet) Get(name string) ([]byte, error) {
	m.hook(name)
	return m.rangeBase.Get(name)
}

func (m *sweepOnPackGet) ReadRanges(name string, rs []storage.Range) error {
	m.hook(name)
	return m.rangeBase.ReadRanges(name, rs)
}

// TestDedupStoreGetReresolvesAfterCompaction: a Get that located its
// chunks in a pack which a sweep then compacts away re-resolves them
// under the lock and reads them from the new pack.
func TestDedupStoreGetReresolvesAfterCompaction(t *testing.T) {
	for _, kind := range packStoreKinds {
		t.Run(kind, func(t *testing.T) {
			inner := &sweepOnPackGet{rangeBase: newPackStore(t, kind)}
			st := New(inner, Options{})
			base := payload(40, 32<<10)
			if err := st.Put("old", base); err != nil {
				t.Fatal(err)
			}
			keep := append([]byte(nil), base[:16<<10]...)
			if err := st.Put("keep", keep); err != nil {
				t.Fatal(err)
			}
			if err := st.Release("old"); err != nil {
				t.Fatal(err)
			}
			swept := false
			inner.fn = func() {
				stats, err := st.Sweep()
				swept = err == nil && stats.Chunks > 0
			}
			got, err := st.Get("keep")
			if err != nil || !bytes.Equal(got, keep) {
				t.Fatalf("Get across a compaction failed (err %v)", err)
			}
			if !swept {
				t.Fatal("the sweep under Get compacted nothing — the race was not exercised")
			}
		})
	}
}

// TestDedupStoreGetSweepRace runs readers against a writer whose every
// round leaves a half-dead pack for the sweep to compact, under -race
// in `make race-stress`: every Get returns the exact bytes.
func TestDedupStoreGetSweepRace(t *testing.T) {
	for _, kind := range packStoreKinds {
		t.Run(kind, func(t *testing.T) { getSweepRace(t, newPackStore(t, kind)) })
	}
}

func getSweepRace(t *testing.T, inner storage.Backend) {
	st := New(inner, Options{})
	const rounds, readers = 30, 3
	var mu sync.Mutex
	live := map[string][]byte{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers) // each reader sends at most once
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				snap := make(map[string][]byte, len(live))
				for k, v := range live {
					snap[k] = v
				}
				mu.Unlock()
				for name, want := range snap {
					got, err := st.Get(name)
					if err != nil || !bytes.Equal(got, want) {
						errc <- fmt.Errorf("%s: err %v, exact %v", name, err, bytes.Equal(got, want))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		// The scratch object's pack also holds the first half of the kept
		// one: releasing the scratch object leaves that pack half dead.
		scratch := payload(int64(1000+i), 32<<10)
		keep := append([]byte(nil), scratch[:16<<10]...)
		name := fmt.Sprintf("keep%02d", i)
		if err := st.Put("scratch", scratch); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(name, keep); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		live[name] = keep
		mu.Unlock()
		if err := st.Release("scratch"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestDedupStoreOverCompression: the dedup store layered over the
// compression pipeline — the production stacking — still round-trips;
// chunks are individually framed by the inner wrapper and transparently
// decoded on the way back.
func TestDedupStoreOverCompression(t *testing.T) {
	inner := storage.NewCompressing(newMem(), storage.CompressionOptions{Codec: "flate"})
	st := New(inner, Options{})
	// Compressible data: repeated structure plus noise.
	data := bytes.Repeat(payload(16, 1<<10), 32)
	if err := st.Put("obj-it000001", data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("obj-it000001")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip through compression mismatch (err %v)", err)
	}
	// A sweep over the layered stack must forward deletes to the base.
	if err := st.Release("obj-it000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Sweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("obj-it000001"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("swept object still readable through compression (err %v)", err)
	}
}

// TestDedupStoreConcurrentSweep runs writers, retention churn and GC
// sweeps concurrently (the -race gate for the store): no chunk
// referenced by a retained object may ever be collected, so every
// object still live at the end must read back intact.
func TestDedupStoreConcurrentSweep(t *testing.T) {
	st := New(newMem(), Options{})
	const writers = 4
	const perWriter = 20
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := payload(int64(100+w), 24<<10)
			for i := 0; i < perWriter; i++ {
				data := append([]byte(nil), base...)
				copy(data[(i%8)<<10:], payload(int64(1000*w+i), 2<<10))
				name := fmt.Sprintf("w%d-it%06d", w, i)
				if err := st.Put(name, data); err != nil {
					errc <- err
					return
				}
				// Keep a window of 3 iterations; release the rest.
				if i >= 3 {
					if err := st.Release(fmt.Sprintf("w%d-it%06d", w, i-3)); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := st.Sweep(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, err := st.Sweep(); err != nil {
		t.Fatal(err)
	}
	// The last 3 iterations of every writer are still retained: each
	// must reassemble exactly.
	for w := 0; w < writers; w++ {
		for i := perWriter - 3; i < perWriter; i++ {
			name := fmt.Sprintf("w%d-it%06d", w, i)
			got, err := st.Get(name)
			if err != nil {
				t.Fatalf("%s unreadable after concurrent sweeps: %v", name, err)
			}
			want := append([]byte(nil), payload(int64(100+w), 24<<10)...)
			copy(want[(i%8)<<10:], payload(int64(1000*w+i), 2<<10))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s corrupted after concurrent sweeps", name)
			}
		}
	}
}

// TestDedupCost: the cost twin charges hash CPU and forwards only the
// new fraction of each write, while reads forward the full raw volume.
func TestDedupCost(t *testing.T) {
	eng := des.NewEngine()
	st := Cost(storage.NewMemory(eng, 4, 1e9), 0.25)
	const vol = 8 << 20
	eng.Spawn("writer", func(p *des.Proc) {
		p.Do(st.Write(0, vol, storage.BigSequential).Then)
		p.Do(st.Read(0, vol, storage.BigSequential).Then)
	})
	eng.Run()
	acc := st.Accounting()
	if acc.ChunkHashTime <= 0 {
		t.Fatalf("no hash CPU charged: %+v", acc)
	}
	// Written volume: ~25% of raw plus recipe overhead, far below half.
	if acc.BytesWritten >= vol/2 {
		t.Fatalf("DES face forwarded %.0f of %d bytes — dedup fraction not applied", acc.BytesWritten, vol)
	}
	if acc.BytesWritten <= vol/5 {
		t.Fatalf("DES face forwarded %.0f bytes — below the 25%% new fraction", acc.BytesWritten)
	}
	if acc.BytesRead != vol {
		t.Fatalf("restore read %.0f bytes, want the full %d raw volume", acc.BytesRead, vol)
	}
	if acc.DedupBytesSaved <= 0 {
		t.Fatalf("no dedup savings recorded: %+v", acc)
	}
}

// TestOneFacePerType: a reduction layer's object store and its cost
// twin are separate values, and the PFS model is a cost model only —
// each implements exactly one of the two faces. (Memory and SDF still
// carry both.)
func TestOneFacePerType(t *testing.T) {
	eng := des.NewEngine()
	mem := storage.NewMemory(eng, 4, 1e9)
	codec, err := storage.CodecCost(mem, "rle")
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]any{
		"Compressing": storage.NewCompressing(mem, storage.CompressionOptions{}),
		"Store":       New(mem, Options{}),
		"PFS":         storage.NewPFS(eng, topology.Kraken(1).PFS, rng.New(1, 1)),
		"CodecCost":   codec,
		"Cost":        Cost(mem, 1),
	} {
		_, cost := v.(storage.CostModel)
		_, object := v.(storage.Backend)
		if cost == object {
			t.Errorf("%s: cost face %v, object face %v; want exactly one", name, cost, object)
		}
	}
}

// rangeCounter records the ranged reads the dedup store makes.
type rangeCounter struct {
	rangeBase
	packs, ranges int
	bytes         int64
}

func (m *rangeCounter) ReadRanges(name string, rs []storage.Range) error {
	m.packs++
	m.ranges += len(rs)
	for _, r := range rs {
		m.bytes += int64(len(r.Dst))
	}
	return m.rangeBase.ReadRanges(name, rs)
}

// TestDedupStoreGetReadsRuns: a Get reads each pack it touches once,
// exactly the object's bytes, and joins the chunks that follow each
// other both in the recipe and in the pack into one range. An edit in
// the middle of an object leaves it in two packs: the old one holds
// the runs before and after the edit, the new one the edited run.
func TestDedupStoreGetReadsRuns(t *testing.T) {
	for _, kind := range packStoreKinds {
		t.Run(kind, func(t *testing.T) {
			inner := &rangeCounter{rangeBase: newPackStore(t, kind)}
			st := New(inner, Options{})
			base := payload(50, 64<<10)
			edit := append([]byte(nil), base...)
			copy(edit[32<<10:], payload(51, 4<<10))
			objs := []struct {
				name string
				data []byte
			}{{"it0", base}, {"it1", edit}}
			for _, o := range objs {
				if err := st.Put(o.name, o.data); err != nil {
					t.Fatal(err)
				}
			}
			for _, o := range objs {
				name, want := o.name, o.data
				inner.packs, inner.ranges, inner.bytes = 0, 0, 0
				got, err := st.Get(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: err %v", name, err)
				}
				wantPacks, wantRanges := 1, 1
				if name == "it1" {
					wantPacks, wantRanges = 2, 3
				}
				if inner.packs != wantPacks || inner.ranges != wantRanges || inner.bytes != int64(len(want)) {
					t.Fatalf("%s: %d packs, %d ranges, %d bytes read; want %d, %d, %d",
						name, inner.packs, inner.ranges, inner.bytes, wantPacks, wantRanges, len(want))
				}
			}
		})
	}
}
