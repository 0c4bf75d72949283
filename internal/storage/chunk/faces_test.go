package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestStoreRefusesChunkNamespace: the chunk namespace holds the store's
// own packs and indexes, so a caller's Put or Delete of a name inside
// it is refused, and the live pack behind the index survives.
func TestStoreRefusesChunkNamespace(t *testing.T) {
	mem := newMem()
	st := New(mem, Options{})
	data := payload(70, 64<<10)
	if err := st.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"chunk/x", chunkPrefix + "y" + packSuffix} {
		if err := st.Put(name, []byte("small")); !errors.Is(err, ErrReservedName) {
			t.Fatalf("Put(%q): want ErrReservedName, got %v", name, err)
		}
		if err := st.PutVec(name, [][]byte{data}); !errors.Is(err, ErrReservedName) {
			t.Fatalf("PutVec(%q): want ErrReservedName, got %v", name, err)
		}
	}
	packs, err := mem.List(chunkPrefix)
	if err != nil || len(packs) != 2 {
		t.Fatalf("chunk namespace holds %v (err %v); want one pack and its index", packs, err)
	}
	for _, name := range packs {
		if err := st.Delete(name); !errors.Is(err, ErrReservedName) {
			t.Fatalf("Delete(%q): want ErrReservedName, got %v", name, err)
		}
	}
	if got, err := st.Get("obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("object broken after refused deletes (err %v)", err)
	}
}

// TestStackFaceContract: every stack Stack builds — {memory, sdf} ×
// {no codec, adaptive} × {dedup off, on} — has the whole Backend shape
// and keeps one contract. Ranges equal the matching slices of Get, a
// range outside the object is ErrOutOfRange, a missing name
// ErrNotFound; a deleted object is gone from Get, Delete and List. On
// the dedup stacks a Sweep after Delete frees exactly the chunks only
// the deleted object held and keeps the ones a live object shares.
func TestStackFaceContract(t *testing.T) {
	data := payload(60, 64<<10)
	shared := append([]byte(nil), data...)
	copy(shared[32<<10:], payload(61, 4<<10))
	for _, base := range packStoreKinds {
		for _, codec := range []string{"", storage.AdaptiveCodec} {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/codec=%q/dedup=%v", base, codec, dedup), func(t *testing.T) {
					var opts *Options
					if dedup {
						opts = &Options{}
					}
					st, err := Stack(newPackStore(t, base), codec, opts)
					if err != nil {
						t.Fatal(err)
					}
					faceContract(t, st, data, shared)
				})
			}
		}
	}
}

func faceContract(t *testing.T, st storage.Backend, data, shared []byte) {
	for name, obj := range map[string][]byte{"obj": data, "shared": shared, "empty": nil} {
		if err := st.Put(name, obj); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(data))
	spans := [][2]int64{{0, n}, {0, 0}, {n, 0}, {17, 100}, {n - 1, 1}, {n / 2, n / 3}}
	rs := make([]storage.Range, len(spans))
	for i, s := range spans {
		rs[i] = storage.Range{Off: s[0], Dst: make([]byte, s[1])}
	}
	if err := st.ReadRanges("obj", rs); err != nil {
		t.Fatal(err)
	}
	for i, s := range spans {
		if !bytes.Equal(rs[i].Dst, data[s[0]:s[0]+s[1]]) {
			t.Fatalf("range [%d, +%d) differs from Get's bytes", s[0], s[1])
		}
	}
	for _, s := range [][2]int64{{-1, 1}, {n, 1}, {0, n + 1}, {n + 1, 0}} {
		err := st.ReadRanges("obj", []storage.Range{{Off: s[0], Dst: make([]byte, s[1])}})
		if !errors.Is(err, storage.ErrOutOfRange) {
			t.Fatalf("range [%d, +%d): want ErrOutOfRange, got %v", s[0], s[1], err)
		}
	}
	if err := st.ReadRanges("empty", []storage.Range{{Dst: make([]byte, 1)}}); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("byte of an empty object: want ErrOutOfRange, got %v", err)
	}
	if err := st.ReadRanges("missing", []storage.Range{{Dst: make([]byte, 1)}}); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("ranges of a missing object: want ErrNotFound, got %v", err)
	}
	if _, err := st.Get("missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get of a missing object: want ErrNotFound, got %v", err)
	}

	if err := st.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("obj"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after Delete: want ErrNotFound, got %v", err)
	}
	if err := st.Delete("obj"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("second Delete: want ErrNotFound, got %v", err)
	}
	if names, err := st.List(""); err != nil || !slices.Equal(names, []string{"empty", "shared"}) {
		t.Fatalf("List after Delete: %v (err %v)", names, err)
	}

	if dd, ok := st.(*Store); ok {
		stats, err := dd.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		chunks, freed := onlyIn(data, shared)
		if chunks == 0 {
			t.Fatal("the deleted object holds no chunk of its own — nothing to free")
		}
		if stats.Objects != 0 || stats.Chunks != chunks || stats.BytesFreed != freed {
			t.Fatalf("sweep after Delete reclaimed %+v; want 0 objects, %d chunks, %d bytes",
				stats, chunks, freed)
		}
	}
	if got, err := st.Get("shared"); err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("live object broken by Delete (err %v)", err)
	}
}

// onlyIn counts the distinct chunks of a that b does not hold, and
// their bytes.
func onlyIn(a, b []byte) (chunks int, bytes int64) {
	held := map[digest]bool{}
	for _, c := range Split(b, Params{}) {
		held[sha256.Sum256(c)] = true
	}
	for _, c := range Split(a, Params{}) {
		if sum := sha256.Sum256(c); !held[sum] {
			held[sum] = true
			chunks++
			bytes += int64(len(c))
		}
	}
	return chunks, bytes
}

// TestDedupStoreConcurrentDelete runs PutVec, Get, Delete and Sweep
// concurrently over objects that share chunks, under -race in `make
// race-stress`: every Get of an object that is never deleted returns
// its exact bytes, and every Delete of a stored object succeeds.
func TestDedupStoreConcurrentDelete(t *testing.T) {
	for _, kind := range packStoreKinds {
		t.Run(kind, func(t *testing.T) { concurrentDelete(t, newPackStore(t, kind)) })
	}
}

func concurrentDelete(t *testing.T, inner storage.Backend) {
	st := New(inner, Options{})
	const writers, perWriter, readers = 2, 16, 2
	var mu sync.Mutex
	keep := map[string][]byte{}
	doomed := make(chan string, writers*perWriter)
	stop := make(chan struct{})
	errc := make(chan error, writers+readers+2) // each goroutine sends at most once
	var work, bg sync.WaitGroup
	for w := 0; w < writers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			base := payload(int64(200+w), 24<<10)
			for i := 0; i < perWriter; i++ {
				data := append([]byte(nil), base...)
				copy(data[(i%8)<<10:], payload(int64(2000+100*w+i), 2<<10))
				name := fmt.Sprintf("w%d-it%02d", w, i)
				if err := st.PutVec(name, [][]byte{data[:5000], data[5000:]}); err != nil {
					errc <- err
					return
				}
				if i%2 == 0 {
					doomed <- name
					continue
				}
				mu.Lock()
				keep[name] = data
				mu.Unlock()
			}
		}(w)
	}
	bg.Add(2 + readers)
	go func() {
		defer bg.Done()
		for name := range doomed {
			if err := st.Delete(name); err != nil {
				errc <- fmt.Errorf("delete %s: %w", name, err)
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Sweep(); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				snap := make(map[string][]byte, len(keep))
				for k, v := range keep {
					snap[k] = v
				}
				mu.Unlock()
				for name, want := range snap {
					if got, err := st.Get(name); err != nil || !bytes.Equal(got, want) {
						errc <- fmt.Errorf("%s: err %v, exact %v", name, err, bytes.Equal(got, want))
						return
					}
				}
			}
		}()
	}
	work.Wait()
	close(doomed)
	close(stop)
	bg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, err := st.Sweep(); err != nil {
		t.Fatal(err)
	}
	names, err := st.List("")
	if err != nil || len(names) != len(keep) {
		t.Fatalf("%d objects listed, %d kept (err %v)", len(names), len(keep), err)
	}
	for name, want := range keep {
		if got, err := st.Get(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the last sweep: err %v", name, err)
		}
	}
}
