package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/des"
)

// smoothFloats returns n smooth float64 values as bytes — the CM1-like
// payload Gorilla-family codecs are built for.
func smoothFloats(n int) []byte {
	out := make([]byte, n*8)
	for i := 0; i < n; i++ {
		v := 300.0 + 2*math.Sin(float64(i)/32.0)
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// sparseMask returns n bytes of mostly zeros — RLE's home turf.
func sparseMask(n int) []byte {
	out := make([]byte, n)
	for i := 61; i < n; i += 127 {
		out[i] = 1
	}
	return out
}

// monotonicInts returns n int64 counters with small steps — delta's
// home turf.
func monotonicInts(n int) []byte {
	out := make([]byte, n*8)
	v := int64(0)
	for i := 0; i < n; i++ {
		v += int64(1 + i%17)
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// incompressible returns n bytes with no structure any registered
// codec can exploit.
func incompressible(n int) []byte {
	out := make([]byte, n)
	x := uint32(2463534242)
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

// TestCompressingGetEquality: on every object store, Get of an object
// stored with compression enabled returns the original bytes.
func TestCompressingGetEquality(t *testing.T) {
	payloads := map[string][]byte{
		"floats-it000001": smoothFloats(4096),
		"mask-it000001":   sparseMask(32 << 10),
		"counts-it000001": monotonicInts(4096),
		"noise-it000001":  incompressible(4 << 10),
		"empty-it000001":  {},
	}
	for _, kind := range storeKinds {
		for _, codecName := range append(compress.Names(), AdaptiveCodec) {
			t.Run(kind+"/"+codecName, func(t *testing.T) {
				b := NewCompressing(newStore(t, kind), CompressionOptions{Codec: codecName})
				for name, raw := range payloads {
					if err := b.Put(name, raw); err != nil {
						t.Fatalf("Put(%s): %v", name, err)
					}
					got, err := b.Get(name)
					if err != nil {
						t.Fatalf("Get(%s): %v", name, err)
					}
					if !bytes.Equal(got, raw) {
						t.Fatalf("Get(%s) differs: %d vs %d bytes", name, len(got), len(raw))
					}
				}
				if _, err := b.Get("never-stored"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("missing object: %v, want ErrNotFound", err)
				}
				acc := b.Accounting()
				if acc.ObjectsCompressed != len(payloads) {
					t.Fatalf("ObjectsCompressed = %d, want %d", acc.ObjectsCompressed, len(payloads))
				}
			})
		}
	}
}

// storedHeader returns the frame header of the object name as it
// landed on the inner backend: how a compressing store stored an
// object is read from the object itself.
func storedHeader(t *testing.T, inner ObjectReader, name string) FrameHeader {
	t.Helper()
	obj, err := inner.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := ParseFrameHeader(obj)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return h
}

// sparseCube returns an 8×8×8 float64 cube that is zero except for one
// ramp along x — a localized perturbation, like cloud water early in a
// CM1 run.
func sparseCube() []byte {
	out := make([]byte, 8*8*8*8)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(out[((4*8+4)*8+i)*8:], math.Float64bits(float64(i)))
	}
	return out
}

// TestCompressingStoredFramed: what lands on the inner backend is the
// framed encoding, and its header describes it. Gorilla shrinks smooth
// floats, and a mostly-constant field at least 4× — where the paper's
// 600 % (§IV.D) comes from.
func TestCompressingStoredFramed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		raw      []byte
		minRatio float64
	}{
		{"theta-it000004", smoothFloats(8192), 1},
		{"qc-it000004", sparseCube(), 4},
	} {
		inner := NewMemory(nil, 4, 1e8)
		b := NewCompressing(inner, CompressionOptions{Codec: "gorilla"})
		if err := b.Put(tc.name, tc.raw); err != nil {
			t.Fatal(err)
		}
		stored, err := inner.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if !IsFramed(stored) {
			t.Fatalf("%s: inner object is not framed", tc.name)
		}
		h, _, err := ParseFrameHeader(stored)
		if err != nil {
			t.Fatal(err)
		}
		if h.Codec != "gorilla" || h.RawSize != len(tc.raw) {
			t.Fatalf("%s: frame header %+v", tc.name, h)
		}
		if len(stored) >= len(tc.raw) || h.Ratio() < tc.minRatio {
			t.Fatalf("%s: gorilla stored %d -> %d bytes (%.2fx), want a shrink of at least %gx",
				tc.name, len(tc.raw), h.EncodedSize, h.Ratio(), tc.minRatio)
		}
	}
}

// TestCompressingAdaptiveSelection: the selector picks the right tool
// per dataset, caches the choice per dataset key, and re-uses it for
// later iterations of the same variable.
func TestCompressingAdaptiveSelection(t *testing.T) {
	inner := NewMemory(nil, 4, 1e8)
	b := NewCompressing(inner, CompressionOptions{})
	sets := map[string]func(int) []byte{
		"temp": func(int) []byte { return smoothFloats(8192) },
		"mask": func(int) []byte { return sparseMask(64 << 10) },
	}
	for it := 0; it < 3; it++ {
		for name, gen := range sets {
			objName := name + "-it00000" + string(rune('0'+it))
			if err := b.Put(objName, gen(it)); err != nil {
				t.Fatal(err)
			}
		}
	}
	temp := storedHeader(t, inner, "temp-it000000").Codec
	mask := storedHeader(t, inner, "mask-it000000").Codec
	if temp == mask {
		t.Fatalf("selector chose %q for both smooth floats and a sparse mask", temp)
	}
	if mask != "rle" {
		t.Fatalf("sparse mask chose %q, want rle", mask)
	}
	for it := 1; it < 3; it++ {
		if got := storedHeader(t, inner, "temp-it00000"+string(rune('0'+it))).Codec; got != temp {
			t.Fatalf("iteration %d of temp re-chose %q, want cached %q", it, got, temp)
		}
	}
}

// TestCompressingIncompressibleFallsBack: data no codec helps with is
// stored under a "none" frame, costing only the header.
func TestCompressingIncompressibleFallsBack(t *testing.T) {
	inner := NewMemory(nil, 4, 1e8)
	b := NewCompressing(inner, CompressionOptions{Codec: "flate"})
	raw := incompressible(16 << 10)
	if err := b.Put("noise-it000000", raw); err != nil {
		t.Fatal(err)
	}
	stored, err := inner.Get("noise-it000000")
	if err != nil {
		t.Fatal(err)
	}
	if h, _, err := ParseFrameHeader(stored); err != nil || h.Codec != "none" || h.EncodedSize != len(raw) {
		t.Fatalf("fallback stored %+v (%v) in %d bytes, want the %d raw bytes behind a none header",
			h, err, len(stored), len(raw))
	}
}

// TestCompressingPassThroughReads: a store written without the
// pipeline reads back unchanged through it, so one reader handles old
// and new stores.
func TestCompressingPassThroughReads(t *testing.T) {
	inner := NewMemory(nil, 4, 1e8)
	plain := []byte("written before compression existed")
	if err := inner.Put("legacy", plain); err != nil {
		t.Fatal(err)
	}
	b := NewCompressing(inner, CompressionOptions{})
	got, err := b.Get("legacy")
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("pass-through read failed: %q, %v", got, err)
	}
}

// TestCompressingCorruptObject: a framed object damaged at rest is
// reported as corrupt on Get, the read-side mirror of the manifest
// error contract.
func TestCompressingCorruptObject(t *testing.T) {
	inner := NewMemory(nil, 4, 1e8)
	b := NewCompressing(inner, CompressionOptions{Codec: "flate"})
	if err := b.Put("obj-it000000", smoothFloats(1024)); err != nil {
		t.Fatal(err)
	}
	stored, err := inner.Get("obj-it000000")
	if err != nil {
		t.Fatal(err)
	}
	stored[len(stored)-1] ^= 0xff
	if err := inner.Put("obj-it000000", stored); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("obj-it000000"); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt object Get = %v, want ErrCorruptFrame", err)
	}
}

// TestCompressingUnknownCodecConfig: a bad fixed codec surfaces the
// shared sentinel on the first Put, from ValidateCodecName and from
// CodecCost.
func TestCompressingUnknownCodecConfig(t *testing.T) {
	b := NewCompressing(NewMemory(nil, 4, 1e8), CompressionOptions{Codec: "bogus"})
	if err := b.Put("x", []byte("y")); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("Put with bogus codec = %v, want ErrUnknownCodec", err)
	}
	if err := ValidateCodecName("bogus"); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("ValidateCodecName(bogus) = %v", err)
	}
	if err := ValidateCodecName(AdaptiveCodec); err != nil {
		t.Fatalf("ValidateCodecName(adaptive) = %v", err)
	}
	if _, err := CodecCost(NewMemory(des.NewEngine(), 4, 1e8), "bogus"); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("CodecCost(bogus) = %v, want ErrUnknownCodec", err)
	}
}

// TestCodecCost: on the cost face, Write charges encode CPU on the
// dedicated core, moves only the encoded volume to the inner model,
// and the ledger records the trade; Read mirrors it. Two identical runs
// are bit-identical.
func TestCodecCost(t *testing.T) {
	run := func() (float64, Accounting) {
		eng := des.NewEngine()
		b, err := CodecCost(NewMemory(eng, 4, 1e8), "gorilla")
		if err != nil {
			t.Fatal(err)
		}
		eng.Spawn("dedicated", func(p *des.Proc) {
			b.BeginPhase()
			p.Do(b.Create)
			p.Do(func(k func()) { b.Write(0, 60e6, BigSequential, k) })
			p.Do(b.Close)
			p.Do(b.WriteAsync(1, 60e6, BigSequential).Then)
			p.Do(func(k func()) { b.Read(0, 30e6, BigSequential, k) })
			p.Do(b.ReadAsync(1, 30e6, BigSequential).Then)
		})
		end := eng.Run()
		return end, b.Accounting()
	}
	end, acc := run()
	ratio := defaultProfiles["gorilla"].AssumedRatio
	wantWritten := 2 * 60e6 / ratio
	if math.Abs(acc.BytesWritten-wantWritten) > 1 {
		t.Errorf("BytesWritten = %v, want %v (encoded volume only)", acc.BytesWritten, wantWritten)
	}
	wantRead := 2 * 30e6 / ratio
	if math.Abs(acc.BytesRead-wantRead) > 1 {
		t.Errorf("BytesRead = %v, want %v", acc.BytesRead, wantRead)
	}
	wantSaved := 2*60e6 - wantWritten
	if math.Abs(acc.BytesSaved-wantSaved) > 1 {
		t.Errorf("BytesSaved = %v, want %v", acc.BytesSaved, wantSaved)
	}
	wantEnc := 2 * 60e6 / defaultProfiles["gorilla"].EncodeRate
	if math.Abs(acc.EncodeTime-wantEnc) > 1e-9 {
		t.Errorf("EncodeTime = %v, want %v", acc.EncodeTime, wantEnc)
	}
	if acc.DecodeTime <= 0 {
		t.Error("DecodeTime not charged")
	}
	if end <= 0 {
		t.Error("no virtual time elapsed")
	}
	// The encode wait must actually appear in the schedule: a plain
	// run writing the encoded volume directly finishes faster.
	engPlain := des.NewEngine()
	plain := NewMemory(engPlain, 4, 1e8)
	engPlain.Spawn("dedicated", func(p *des.Proc) {
		plain.BeginPhase()
		p.Do(plain.Create)
		p.Do(func(k func()) { plain.Write(0, 60e6/ratio, BigSequential, k) })
		p.Do(plain.Close)
		p.Do(plain.WriteAsync(1, 60e6/ratio, BigSequential).Then)
		p.Do(func(k func()) { plain.Read(0, 30e6/ratio, BigSequential, k) })
		p.Do(plain.ReadAsync(1, 30e6/ratio, BigSequential).Then)
	})
	plainEnd := engPlain.Run()
	if end <= plainEnd {
		t.Errorf("codec CPU not visible in the schedule: %v <= %v", end, plainEnd)
	}
	end2, acc2 := run()
	if end != end2 || acc.BytesWritten != acc2.BytesWritten || acc.EncodeTime != acc2.EncodeTime {
		t.Errorf("codec cost model not deterministic")
	}
}

// TestCompressingName tags the inner backend name with the codec mode.
func TestCompressingName(t *testing.T) {
	b := NewCompressing(NewMemory(nil, 1, 1e8), CompressionOptions{Codec: "rle"})
	if b.Name() != "memory+rle" {
		t.Fatalf("Name = %q", b.Name())
	}
}

// TestCompressingVaryingSizesSameDataset: a cached per-dataset choice
// must never make a later Put of the same dataset fail — a partial
// batch after a failure shrinks the object to a length the cached
// element width may not divide.
func TestCompressingVaryingSizesSameDataset(t *testing.T) {
	inner := NewMemory(nil, 4, 1e8)
	b := NewCompressing(inner, CompressionOptions{})
	full := smoothFloats(4096) // aligned: caches an 8-byte-element codec
	if err := b.Put("job-root000-it000000", full); err != nil {
		t.Fatal(err)
	}
	if storedHeader(t, inner, "job-root000-it000000").Codec == "none" {
		t.Fatalf("smooth floats chose none; test needs an element-structured choice")
	}
	short := full[:1021] // same dataset key, unaligned length
	if err := b.Put("job-root000-it000001", short); err != nil {
		t.Fatalf("unaligned later object of the same dataset failed: %v", err)
	}
	got, err := b.Get("job-root000-it000001")
	if err != nil || !bytes.Equal(got, short) {
		t.Fatalf("unaligned object round trip: %v", err)
	}
}
