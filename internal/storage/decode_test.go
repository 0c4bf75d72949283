package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// ckptBlock returns n float64 values of a smooth field kept to 2^-10
// resolution; its base, amplitude and wavelength follow from i, so
// blocks of one object differ the way a simulation's variables do.
func ckptBlock(i, n int) []byte {
	frac := func(x float64) float64 { return x - math.Floor(x) }
	base := 250 + 100*frac(float64(i)*0.5698402909980532)
	amp := 2 + 8*frac(float64(i)*0.6180339887498949)
	step := 2 * math.Pi / (256 + 256*frac(float64(i)*0.7548776662466927))
	out := make([]byte, n*8)
	for k := 0; k < n; k++ {
		v := math.Round((base+amp*math.Sin(float64(k)*step))*1024) / 1024
		binary.LittleEndian.PutUint64(out[k*8:], math.Float64bits(v))
	}
	return out
}

// ckptRootSegs is the segment list of one root object of the ckpt-codec
// benchmark workload: 64 blocks, each a 24-byte header and a 128 KiB
// rounded float64 field — 128 frame parts, 64 of them delta-encoded.
func ckptRootSegs() [][]byte {
	segs := make([][]byte, 0, 128)
	for i := 0; i < 64; i++ {
		hdr := make([]byte, 24)
		binary.LittleEndian.PutUint64(hdr, uint64(i))
		binary.LittleEndian.PutUint64(hdr[8:], 128<<10)
		segs = append(segs, hdr, ckptBlock(i, 16<<10))
	}
	return segs
}

// allocSink keeps the baseline allocation of TestDecodeFrameAllocs
// from being optimised away.
var allocSink []byte

// TestDecodeFrameAllocs: a frame of 64 delta blocks decodes with the
// raw object allocated once and every part decoded in place — the
// header's codec name and part table are the other two allocations.
// The bytes allocated per decode stay within 4 KiB of what the
// allocator charges for the raw object alone (it rounds a buffer this
// large up to whole pages).
func TestDecodeFrameAllocs(t *testing.T) {
	obj := vectorFrame(t, "delta", ckptRootSegs())
	h, _, err := ParseFrameHeader(obj)
	if err != nil || h.Codec != "delta" || len(h.Parts) != 128 {
		t.Fatalf("test frame: %d parts of %s, %v", len(h.Parts), h.Codec, err)
	}
	decode := func() {
		if _, _, err := DecodeFrame(obj); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, decode); allocs > 3 {
		t.Errorf("DecodeFrame allocates %v times per frame, want at most 3", allocs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytesPer := func(f func()) uint64 {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	rawAlloc := bytesPer(func() { allocSink = make([]byte, h.RawSize) })
	allocSink = nil
	if per := bytesPer(decode); per > rawAlloc+4<<10 {
		t.Errorf("DecodeFrame allocates %d bytes per %d-byte object (%d for the object alone), want at most 4 KiB more",
			per, h.RawSize, rawAlloc)
	}
}

// TestCompressingConcurrentDelta: two writers PutVec delta objects
// through one Compressing while the test goroutine Gets them back. The
// encoders share the pooled scratch buffers, so a buffer returned early
// or handed to two encoders shows up as an object that reads back
// wrong (or as a race under -race).
func TestCompressingConcurrentDelta(t *testing.T) {
	b := NewCompressing(NewMemory(nil, 4, 1e8), CompressionOptions{Codec: "delta"})
	const writers, objects = 2, 12
	segs := func(w, i int) [][]byte {
		return [][]byte{[]byte("hdr"), ckptBlock(w*objects+i, standaloneBytes/8), []byte("hdr2"), ckptBlock(i, standaloneBytes/4)}
	}
	names := make(chan string, writers*objects)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < objects; i++ {
				name := fmt.Sprintf("job-root%03d-it%06d", w, i)
				if err := b.PutVec(name, segs(w, i)); err != nil {
					t.Error(err)
					return
				}
				names <- name
			}
		}(w)
	}
	go func() { wg.Wait(); close(names) }()
	read := 0
	for name := range names { // drained to the close, so no writer outlives the test
		var w, i int
		if _, err := fmt.Sscanf(name, "job-root%03d-it%06d", &w, &i); err != nil {
			t.Error(err)
			continue
		}
		got, err := b.Get(name)
		if err != nil || !bytes.Equal(got, FlattenSegs(segs(w, i))) {
			t.Errorf("%s read back %d bytes (%v), not what was written", name, len(got), err)
		}
		read++
	}
	if read != writers*objects {
		t.Fatalf("read %d objects, want %d", read, writers*objects)
	}
	if acc := b.Accounting(); acc.ObjectsCompressed != writers*objects || acc.ObjectEncodedBytes >= acc.ObjectRawBytes {
		t.Fatalf("ledger: %+v", acc)
	}
}

// BenchmarkCompressingPutVec stores one ckpt-codec root object through
// the adaptive pipeline per iteration (the selector picks delta once).
func BenchmarkCompressingPutVec(b *testing.B) {
	segs := ckptRootSegs()
	c := NewCompressing(NewMemory(nil, 1, 1e9), CompressionOptions{})
	b.SetBytes(int64(SegsLen(segs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PutVec("ckpt-root000-it000000", segs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFrame decodes one ckpt-codec root object per
// iteration, the restore side of BenchmarkCompressingPutVec.
func BenchmarkDecodeFrame(b *testing.B) {
	segs := ckptRootSegs()
	obj := vectorFrame(b, AdaptiveCodec, segs)
	b.SetBytes(int64(SegsLen(segs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(obj); err != nil {
			b.Fatal(err)
		}
	}
}
