package storage

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/topology"
)

func testPlatform() topology.Platform {
	p := topology.Kraken(4)
	p.PFS.OSTs = 8
	return p
}

// costKinds name the cost models the cost-face tests run on, and
// storeKinds the object stores the object-face tests run on.
var (
	costKinds  = []string{"pfs", "memory", "sdf"}
	storeKinds = []string{"memory", "sdf"}
)

// newCostModel builds the named cost model on eng, sized for
// testPlatform's storage system.
func newCostModel(t *testing.T, kind string, eng *des.Engine) CostModel {
	t.Helper()
	p := testPlatform().PFS
	if kind == "pfs" {
		return NewPFS(eng, p, rng.New(7, 1))
	}
	if kind == "memory" {
		return NewMemory(eng, p.OSTs, p.OSTBandwidth)
	}
	b, err := NewSDF(eng, p.OSTs, p.OSTBandwidth, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newStore builds the named object store.
func newStore(t *testing.T, kind string) Backend {
	t.Helper()
	if kind == "memory" {
		return NewMemory(nil, 4, 1e8)
	}
	b, err := NewSDF(nil, 4, 1e8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSDFNeedsDir(t *testing.T) {
	if _, err := NewSDF(des.NewEngine(), 4, 1e8, ""); err == nil {
		t.Fatal("sdf backend without a directory should error")
	}
}

// TestSimulatedFaceAccounting drives the full simulated life cycle on
// every cost model and checks the ledger.
func TestSimulatedFaceAccounting(t *testing.T) {
	for _, kind := range costKinds {
		t.Run(kind, func(t *testing.T) {
			eng := des.NewEngine()
			b := newCostModel(t, kind, eng)
			const files, perFile = 3, 5e6
			eng.Spawn("writer", func(p *des.Proc) {
				b.BeginPhase()
				for i := 0; i < files; i++ {
					p.Do(b.Create)
					p.Do(func(k func()) { b.Write(i, perFile, BigSequential, k) })
					p.Do(b.Close)
				}
			})
			end := eng.Run()
			acc := b.Accounting()
			if acc.BytesWritten != files*perFile {
				t.Errorf("BytesWritten = %v, want %v", acc.BytesWritten, float64(files*perFile))
			}
			if acc.IOBusyTime <= 0 || acc.IOBusyTime > end {
				t.Errorf("IOBusyTime = %v outside (0, %v]", acc.IOBusyTime, end)
			}
			if b.Targets() <= 0 {
				t.Errorf("Targets = %d", b.Targets())
			}
		})
	}
}

// TestWriteAsyncCompletes exercises the future-returning write path.
func TestWriteAsyncCompletes(t *testing.T) {
	for _, kind := range costKinds {
		t.Run(kind, func(t *testing.T) {
			eng := des.NewEngine()
			b := newCostModel(t, kind, eng)
			var done bool
			eng.Spawn("writer", func(p *des.Proc) {
				f := b.WriteAsync(0, 1e6, BigSequential)
				p.Do(f.Then)
				done = true
			})
			eng.Run()
			if !done {
				t.Fatal("async write never completed")
			}
			if got := b.Accounting().BytesWritten; got != 1e6 {
				t.Errorf("BytesWritten = %v, want 1e6", got)
			}
		})
	}
}

// TestPatternOrdering checks that every cost model prices the paper's three
// access patterns in the same order: big-sequential streams beat small
// files, which beat extent-locked shared files.
func TestPatternOrdering(t *testing.T) {
	for _, kind := range costKinds {
		t.Run(kind, func(t *testing.T) {
			times := map[Pattern]float64{}
			for _, pat := range []Pattern{BigSequential, SmallFile, SharedFile} {
				eng := des.NewEngine()
				b := newCostModel(t, kind, eng)
				// Several concurrent streams so pattern-dependent
				// concurrency penalties apply.
				for s := 0; s < 4; s++ {
					target := s
					eng.Spawn("writer", func(p *des.Proc) {
						p.Do(func(k func()) { b.Write(target, 50e6, pat, k) })
					})
				}
				times[pat] = eng.Run()
			}
			if !(times[BigSequential] < times[SmallFile] && times[SmallFile] < times[SharedFile]) {
				t.Errorf("pattern cost ordering violated: seq=%v small=%v shared=%v",
					times[BigSequential], times[SmallFile], times[SharedFile])
			}
		})
	}
}

// TestMemoryDeterminism: two identical memory-backend runs are
// bit-identical (no stochastic inputs at all).
func TestMemoryDeterminism(t *testing.T) {
	run := func() (float64, Accounting) {
		eng := des.NewEngine()
		b := NewMemory(eng, 8, 1e8)
		for s := 0; s < 6; s++ {
			target := s
			eng.Spawn("w", func(p *des.Proc) {
				p.Do(b.Create)
				p.Do(func(k func()) { b.Write(target, 3e6, SmallFile, k) })
				p.Do(b.Close)
			})
		}
		return eng.Run(), b.Accounting()
	}
	t1, a1 := run()
	t2, a2 := run()
	if t1 != t2 || !reflect.DeepEqual(a1, a2) {
		t.Fatalf("memory backend not deterministic: %v/%v vs %v/%v", t1, a1, t2, a2)
	}
}

// TestObjectRoundTrip stores and reads back real objects on every
// object store.
func TestObjectRoundTrip(t *testing.T) {
	for _, name := range storeKinds {
		b := newStore(t, name)
		payload := []byte("damaris iteration payload \x00\x01\x02")
		if err := b.Put("job-it000001", payload); err != nil {
			t.Fatalf("%s: Put: %v", name, err)
		}
		if err := b.Put("empty", nil); err != nil {
			t.Fatalf("%s: Put empty: %v", name, err)
		}
		got, err := b.Get("job-it000001")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: Get round trip failed: err=%v got=%q", name, err, got)
		}
		if e, err := b.Get("empty"); err != nil || len(e) != 0 {
			t.Fatalf("%s: empty object round trip failed", name)
		}
		if _, err := b.Get("missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Get of a missing object = %v, want ErrNotFound", name, err)
		}
		if names, err := b.List(""); err != nil || len(names) != 2 {
			t.Fatalf("%s: List = %v, %v, want 2 names", name, names, err)
		}
		acc := b.Accounting()
		if acc.Objects != 2 || acc.ObjectBytes != int64(len(payload)) {
			t.Fatalf("%s: object accounting = %+v", name, acc)
		}
		if err := b.Put("", []byte("x")); err == nil {
			t.Fatalf("%s: empty name should error", name)
		}
	}
}

func TestPlaceFile(t *testing.T) {
	for _, kind := range costKinds {
		b := newCostModel(t, kind, des.NewEngine())
		r := rng.New(11, 2)
		osts := b.PlaceFile(3, r)
		if len(osts) != 3 {
			t.Fatalf("%s: PlaceFile returned %d targets", kind, len(osts))
		}
		seen := map[int]bool{}
		for _, o := range osts {
			if o < 0 || o >= b.Targets() || seen[o] {
				t.Fatalf("%s: bad placement %v", kind, osts)
			}
			seen[o] = true
		}
		if all := b.PlaceFile(b.Targets()+5, r); len(all) != b.Targets() {
			t.Fatalf("%s: over-striping returned %d targets", kind, len(all))
		}
	}
}

func TestPatternString(t *testing.T) {
	if BigSequential.String() != "big-sequential" || SmallFile.String() != "small-file" ||
		SharedFile.String() != "shared-file" {
		t.Error("pattern names wrong")
	}
	if Pattern(42).String() != "Pattern(42)" {
		t.Error("unknown pattern formatting wrong")
	}
}

// TestGetListRoundTrip drives the full real read face on every object
// store: Put → List → Get.
func TestGetListRoundTrip(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			b := newStore(t, kind)
			payload := []byte("iteration state \x00\x7f")
			objects := map[string][]byte{
				"job-root000-it000000": payload,
				"job-root000-it000001": []byte("x"),
				"other-it000000":       []byte("y"),
			}
			for name, data := range objects {
				if err := b.Put(name, data); err != nil {
					t.Fatalf("Put(%s): %v", name, err)
				}
			}

			all, err := b.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 3 || !sort.StringsAreSorted(all) {
				t.Fatalf("List(\"\") = %v", all)
			}
			job, err := b.List("job-")
			if err != nil {
				t.Fatal(err)
			}
			if len(job) != 2 {
				t.Fatalf("List(job-) = %v, want the 2 job objects", job)
			}
			none, err := b.List("absent")
			if err != nil || len(none) != 0 {
				t.Fatalf("List(absent) = %v, %v", none, err)
			}

			got, err := b.Get("job-root000-it000000")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get round trip failed: %q, %v", got, err)
			}
			if _, err := b.Get("never-stored"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing object: got %v, want ErrNotFound", err)
			}

			acc := b.Accounting()
			if acc.ObjectReadBytes != int64(len(payload)) {
				t.Errorf("ObjectReadBytes = %d, want %d (missing names are not reads)", acc.ObjectReadBytes, len(payload))
			}
		})
	}
}

// TestSimulatedReadFace: the restart path's Read/ReadAsync mirror of
// the write face, on every cost model.
func TestSimulatedReadFace(t *testing.T) {
	for _, kind := range costKinds {
		t.Run(kind, func(t *testing.T) {
			eng := des.NewEngine()
			b := newCostModel(t, kind, eng)
			const perRead = 5e6
			eng.Spawn("reader", func(p *des.Proc) {
				b.BeginPhase()
				p.Do(b.Open)
				p.Do(func(k func()) { b.Read(0, perRead, BigSequential, k) })
				p.Do(b.ReadAsync(1, perRead, BigSequential).Then)
				p.Do(b.Close)
			})
			end := eng.Run()
			if end <= 0 {
				t.Fatal("reads charged no virtual time")
			}
			acc := b.Accounting()
			if acc.BytesRead != 2*perRead {
				t.Errorf("BytesRead = %v, want %v", acc.BytesRead, 2*perRead)
			}
			if acc.BytesWritten != 0 {
				t.Errorf("reads leaked into BytesWritten: %v", acc.BytesWritten)
			}
			if acc.IOBusyTime <= 0 || acc.IOBusyTime > end {
				t.Errorf("IOBusyTime = %v outside (0, %v]", acc.IOBusyTime, end)
			}
		})
	}
}

// TestSDFGetCollidedName: a name that merely flattens to an existing
// file must be rejected by Get, in-process and from a fresh backend.
func TestSDFGetCollidedName(t *testing.T) {
	dir := t.TempDir()
	b, err := NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("a/b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("a_b"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("collided Get must fail with a collision error, got %v", err)
	}
	if got, err := b.Get("a/b"); err != nil || !bytes.Equal(got, []byte{1}) {
		t.Fatalf("owner Get broken: %q, %v", got, err)
	}
	// A fresh backend over the same directory has no in-memory owner
	// map; the name attribute inside the file must still catch it.
	fresh, err := NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Get("a_b"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("fresh-process collided Get must fail with a collision error, got %v", err)
	}
	if got, err := fresh.Get("a/b"); err != nil || !bytes.Equal(got, []byte{1}) {
		t.Fatalf("fresh-process owner Get broken: %q, %v", got, err)
	}
	// List recovers the unflattened name from the file.
	names, err := fresh.List("a/")
	if err != nil || len(names) != 1 || names[0] != "a/b" {
		t.Fatalf("List = %v, %v; want [a/b]", names, err)
	}
	if _, err := fresh.Get(""); err == nil {
		t.Fatal("empty name must error")
	}
}

// TestSDFOverwriteAccounting: re-putting the same object name replaces
// it, so it counts once — with the size of the latest version — just
// like Memory.Put.
func TestSDFOverwriteAccounting(t *testing.T) {
	b, err := NewSDF(nil, 4, 1e9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("obj", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("obj", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	acc := b.Accounting()
	if acc.Objects != 1 {
		t.Errorf("Objects = %d, want 1 after overwrite", acc.Objects)
	}
	if acc.ObjectBytes != 40 {
		t.Errorf("ObjectBytes = %d, want 40 (latest version only)", acc.ObjectBytes)
	}
	data, err := b.Get("obj")
	if err != nil || len(data) != 40 {
		t.Fatalf("stored object wrong: err=%v len=%d", err, len(data))
	}
	if names, _ := b.List(""); len(names) != 1 {
		t.Errorf("%d files on disk, want 1", len(names))
	}
}

// TestSDFPathCollisionRejected: distinct object names that flatten to
// the same file must error instead of silently clobbering each other.
func TestSDFPathCollisionRejected(t *testing.T) {
	b, err := NewSDF(nil, 4, 1e9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("a/b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("a_b", []byte{2}); err == nil {
		t.Fatal("a_b must collide with a/b")
	}
	if err := b.Put(`a\b`, []byte{3}); err == nil {
		t.Fatal(`a\b must collide with a/b`)
	}
	// The original survives untouched and re-putting it still works.
	if data, err := b.Get("a/b"); err != nil || len(data) != 1 || data[0] != 1 {
		t.Fatalf("original object damaged: err=%v data=%v", err, data)
	}
	if err := b.Put("a/b", []byte{9}); err != nil {
		t.Fatalf("re-put of the owner rejected: %v", err)
	}
	acc := b.Accounting()
	if acc.Objects != 1 || acc.ObjectBytes != 1 {
		t.Errorf("accounting after collisions: %+v", acc)
	}
}
