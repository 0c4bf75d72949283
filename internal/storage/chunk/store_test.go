package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
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
	info, ok := st.ObjectChunks("obj-it000001")
	if !ok || len(info.Chunks) < 2 {
		t.Fatalf("expected a multi-chunk decomposition, got ok=%v chunks=%d", ok, len(info.Chunks))
	}
	if info.RawBytes != int64(len(data)) || info.NewBytes != info.RawBytes {
		t.Fatalf("first store should be all-new: %+v", info)
	}

	// Overwrite a quarter of the payload and store it as the next
	// iteration: at least half the volume must dedup.
	edited := append([]byte(nil), data...)
	copy(edited[8<<10:], payload(43, 16<<10))
	if err := st.Put("obj-it000002", edited); err != nil {
		t.Fatal(err)
	}
	info2, ok := st.ObjectChunks("obj-it000002")
	if !ok {
		t.Fatal("second iteration lost its chunk info")
	}
	if info2.NewBytes >= info2.RawBytes/2 {
		t.Fatalf("25%% overwrite stored %d of %d bytes new — dedup not working",
			info2.NewBytes, info2.RawBytes)
	}
	acc := st.Accounting()
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
	if _, ok := st.ObjectChunks("job-manifest"); ok {
		t.Fatal("pass-through object should report no chunk info")
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
	inner, _ := mem.List("chunk/")
	if len(inner) == 0 {
		t.Fatal("no chunk objects landed on the inner backend")
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
	if _, err := st.Sweep(); err != nil {
		t.Fatal(err)
	}
	left, _ := mem.List("chunk/")
	if len(left) != 0 {
		t.Fatalf("%d chunks left after everything was released", len(left))
	}
	acc := st.Accounting()
	if acc.ChunksCollected == 0 || acc.ChunkBytesFreed == 0 {
		t.Fatalf("GC counters empty: %+v", acc)
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

// TestDedupStoreDanglingChunk: a recipe whose chunk was deleted behind
// the store's back surfaces ErrDanglingChunk, not garbage data.
func TestDedupStoreDanglingChunk(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	if err := st.Put("obj", payload(14, 16<<10)); err != nil {
		t.Fatal(err)
	}
	info, ok := st.ObjectChunks("obj")
	if !ok {
		t.Fatal("no chunk info")
	}
	if err := mem.Delete(ChunkObjectName(info.Chunks[0].Hash)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("obj"); !errors.Is(err, ErrDanglingChunk) {
		t.Fatalf("want ErrDanglingChunk, got %v", err)
	}
}

// TestDedupStoreCorruptChunk: a chunk whose stored bytes no longer
// match its hash is rejected, not silently reassembled.
func TestDedupStoreCorruptChunk(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	if err := st.Put("obj", payload(15, 16<<10)); err != nil {
		t.Fatal(err)
	}
	info, _ := st.ObjectChunks("obj")
	name := ChunkObjectName(info.Chunks[0].Hash)
	raw, err := mem.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := mem.Put(name, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("obj"); !errors.Is(err, ErrCorruptRecipe) {
		t.Fatalf("want ErrCorruptRecipe, got %v", err)
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

// TestDedupStoreDESFace: the simulated face charges hash CPU and
// forwards only the assumed-new fraction of each write, while reads
// forward the full raw volume.
func TestDedupStoreDESFace(t *testing.T) {
	eng := des.NewEngine()
	mem := storage.NewMemory(eng, 4, 1e9)
	st := New(mem, Options{AssumedNewFraction: 0.25})
	const vol = 8 << 20
	eng.Spawn("writer", func(p *des.Proc) {
		st.Write(p, 0, vol, storage.BigSequential)
		st.Read(p, 0, vol, storage.BigSequential)
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
