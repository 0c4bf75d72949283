package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, c Codec, src []byte, elemSize int) []byte {
	t.Helper()
	enc, err := c.Encode(src, elemSize)
	if err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	dec, err := c.Decode(enc, len(src), elemSize)
	if err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	if !bytes.Equal(src, dec) {
		t.Fatalf("%s round trip mismatch (len %d vs %d)", c.Name(), len(src), len(dec))
	}
	return enc
}

// smoothField returns a CM1-like smooth 3-D field flattened to bytes.
func smoothField(n int) []byte {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 300 + 5*math.Sin(float64(i)/40) + 0.01*math.Cos(float64(i)/7)
	}
	return Float64Bytes(xs)
}

// sparseField returns a mostly-zero field (like cloud water content).
func sparseField(n int) []byte {
	xs := make([]float64, n)
	for i := n / 2; i < n/2+n/50; i++ {
		xs[i] = 1e-3 * float64(i%7)
	}
	return Float64Bytes(xs)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "gorilla", "delta", "rle", "flate", ""} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if name != "" && c.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := ByName("zstd"); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("unknown codec should wrap ErrUnknownCodec, got %v", err)
	}
}

func TestNamesAreRegistered(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("Names() lists unregistered %q: %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
}

func TestNoneRoundTrip(t *testing.T) {
	src := []byte("hello damaris")
	enc := roundTrip(t, None{}, src, 1)
	if len(enc) != len(src) {
		t.Fatalf("identity codec changed the length")
	}
}

func TestGorillaRoundTripFloat64(t *testing.T) {
	roundTrip(t, Gorilla{}, smoothField(10000), 8)
	roundTrip(t, Gorilla{}, sparseField(10000), 8)
}

func TestGorillaRoundTripFloat32(t *testing.T) {
	roundTrip(t, Gorilla{}, float32Ramp(), 4)
}

func TestGorillaCompressesSmoothData(t *testing.T) {
	src := sparseField(100000)
	enc, _ := Gorilla{}.Encode(src, 8)
	if r := Ratio(len(src), len(enc)); r < 4 {
		t.Fatalf("gorilla ratio on sparse field = %.2f, want >= 4", r)
	}
}

func TestGorillaRejectsBadElemSize(t *testing.T) {
	if _, err := (Gorilla{}).Encode(make([]byte, 16), 2); err == nil {
		t.Fatal("elemSize 2 should fail")
	}
	if _, err := (Gorilla{}).Decode(nil, 16, 3); err == nil {
		t.Fatal("decode with elemSize 3 should fail")
	}
}

func TestGorillaPropertyFloat64(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) {
				raw[i] = 0 // NaN payloads round-trip bitwise, but avoid ==-compare pitfalls
			}
		}
		src := Float64Bytes(raw)
		enc, err := Gorilla{}.Encode(src, 8)
		if err != nil {
			return false
		}
		dec, err := Gorilla{}.Decode(enc, len(src), 8)
		return err == nil && bytes.Equal(src, dec)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 100, 99, 98, -5, 1 << 40, math.MaxInt64, math.MinInt64}
	src := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(src[i*8:], uint64(v))
	}
	enc := roundTrip(t, Delta{}, src, 8)
	if len(enc) >= len(src) {
		t.Logf("delta did not shrink adversarial data (fine): %d -> %d", len(src), len(enc))
	}
}

func TestDeltaCompressesMonotonicData(t *testing.T) {
	src := make([]byte, 8*10000)
	for i := 0; i < 10000; i++ {
		binary.LittleEndian.PutUint64(src[i*8:], uint64(1000000+i*3))
	}
	enc, _ := Delta{}.Encode(src, 8)
	if r := Ratio(len(src), len(enc)); r < 6 {
		t.Fatalf("delta ratio on monotonic data = %.2f, want >= 6", r)
	}
}

func TestDeltaProperty(t *testing.T) {
	if err := quick.Check(func(vals []int64) bool {
		src := make([]byte, len(vals)*8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(src[i*8:], uint64(v))
		}
		enc, err := Delta{}.Encode(src, 8)
		if err != nil {
			return false
		}
		dec, err := Delta{}.Decode(enc, len(src), 8)
		return err == nil && bytes.Equal(src, dec)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLERoundTrip(t *testing.T) {
	roundTrip(t, RLE{}, bytes.Repeat([]byte{7}, 1000), 1)
	roundTrip(t, RLE{}, []byte{1, 2, 3, 4, 5}, 1)
	roundTrip(t, RLE{}, nil, 1)
}

func TestRLECompressesRuns(t *testing.T) {
	src := bytes.Repeat([]byte{0}, 100000)
	enc, _ := RLE{}.Encode(src, 1)
	if r := Ratio(len(src), len(enc)); r < 100 {
		t.Fatalf("RLE ratio on zeros = %.2f, want >= 100", r)
	}
}

func TestRLEProperty(t *testing.T) {
	if err := quick.Check(func(src []byte) bool {
		enc, err := RLE{}.Encode(src, 1)
		if err != nil {
			return false
		}
		dec, err := RLE{}.Decode(enc, len(src), 1)
		return err == nil && bytes.Equal(src, dec)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlateRoundTrip(t *testing.T) {
	roundTrip(t, Flate{}, smoothField(5000), 8)
	roundTrip(t, Flate{}, []byte("abc"), 1)
}

func TestRatio(t *testing.T) {
	if Ratio(600, 100) != 6 {
		t.Fatal("ratio arithmetic")
	}
	if Ratio(10, 0) != 0 {
		t.Fatal("zero-length encode should give ratio 0")
	}
}

func TestFloat64BytesRoundTrip(t *testing.T) {
	xs := []float64{1.5, -2.25, 0, math.Pi}
	ys := BytesFloat64(Float64Bytes(xs))
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatalf("float bytes round trip: %v vs %v", xs, ys)
		}
	}
}

func BenchmarkGorillaEncodeSmooth(b *testing.B) {
	src := smoothField(100000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Gorilla{}.Encode(src, 8)
	}
}

func BenchmarkFlateEncodeSmooth(b *testing.B) {
	src := smoothField(100000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Flate{}.Encode(src, 1)
	}
}

// float32Ramp is the float32 vector of TestGorillaRoundTripFloat32.
func float32Ramp() []byte {
	xs := make([]byte, 4000)
	for i := 0; i < 1000; i++ {
		binary.LittleEndian.PutUint32(xs[i*4:], math.Float32bits(float32(i)*0.5))
	}
	return xs
}

// TestGorillaStreamGolden pins the Gorilla bit stream: the hashes were
// recorded with the bit-at-a-time writer, so a faster bitWriter must
// produce the same bytes and stores written before it stay readable.
func TestGorillaStreamGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		src  []byte
		elem int
		size int
		sum  string
	}{
		{"smooth", smoothField(10000), 8, 61196, "78f171dcc11596278e373c2a1c131c5316c3a89aad2e209772526d696de715a3"},
		{"sparse", sparseField(10000), 8, 2795, "65f13ba0261c2471fbfe03155079af7d80b29afe5bb5a9065c71d2c3c941d03b"},
		{"float32", float32Ramp(), 4, 2879, "aa3d84f7e01bed1b4ea4cd7e06fdc9f51856255ce141e9805fc0a97255644f05"},
	} {
		enc := roundTrip(t, Gorilla{}, c.src, c.elem)
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != c.size || got != c.sum {
			t.Errorf("%s: gorilla stream changed: %d bytes, sha256 %s", c.name, len(enc), got)
		}
	}
}

// TestBitsRoundTripAllWidths drives the accumulator writer and reader
// through every width at every bit offset, including the reads that
// straddle nine bytes.
func TestBitsRoundTripAllWidths(t *testing.T) {
	for lead := uint(0); lead < 8; lead++ {
		var w bitWriter
		w.writeBits(0, lead)
		for n := uint(1); n <= 64; n++ {
			w.writeBits(0xA5A5A5A5A5A5A5A5^uint64(n), n)
		}
		r := bitReader{buf: w.finish()}
		r.readBits(lead)
		for n := uint(1); n <= 64; n++ {
			want := (0xA5A5A5A5A5A5A5A5 ^ uint64(n)) & (1<<n - 1)
			if got, ok := r.readBits(n); !ok || got != want {
				t.Fatalf("lead %d width %d: read %x, %v; want %x", lead, n, got, ok, want)
			}
		}
		if _, ok := r.readBits(8); ok {
			t.Fatalf("lead %d: read past the end of the stream", lead)
		}
	}
}

// roundedField returns a smooth field kept to 2^-10 resolution, the way
// a simulation's physical fields carry far fewer significant bits (18
// here) than a float64 holds.
func roundedField(n int) []byte {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Round((300+8*math.Sin(float64(i)/60))*1024) / 1024
	}
	return Float64Bytes(xs)
}

func int64Bytes(vals ...int64) []byte {
	src := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(src[i*8:], uint64(v))
	}
	return src
}

// TestDeltaShift: the trailing zero bits all elements share are shifted
// out before the deltas are taken, whatever the sign of the elements.
func TestDeltaShift(t *testing.T) {
	monotonic := make([]int64, 4096) // storage's monotonicInts
	for i, v := 0, int64(0); i < len(monotonic); i++ {
		v += int64(1 + i%17)
		monotonic[i] = v
	}
	for _, c := range []struct {
		name     string
		src      []byte
		shift    byte
		maxBytes int
	}{
		{"rounded floats", roundedField(16384), 34, 16384 * 8 / 4},
		{"all zero", make([]byte, 800), 0, 101},
		{"top bit only", int64Bytes(math.MinInt64, math.MinInt64, 0, math.MinInt64), 63, 5},
		{"negative", int64Bytes(-4096, -8192, -4096, -1<<40), 12, 12},
		{"mixed sign", int64Bytes(-64, 64, -128, 192, 0, math.MinInt64, math.MaxInt64&^63), 6, 40},
		// Integer data pays the shift byte and nothing else.
		{"monotonic ints", int64Bytes(monotonic...), 0, len(monotonic) + 1},
		{"empty", nil, 0, 1},
	} {
		enc := roundTrip(t, Delta{}, c.src, 8)
		if enc[0] != c.shift {
			t.Errorf("%s: shift %d, want %d", c.name, enc[0], c.shift)
		}
		if len(enc) > c.maxBytes {
			t.Errorf("%s: %d -> %d bytes, want at most %d", c.name, len(c.src), len(enc), c.maxBytes)
		}
		if cap(enc) != len(enc) {
			t.Errorf("%s: output capacity %d for %d bytes", c.name, cap(enc), len(enc))
		}
	}
}

// TestDeltaRejectsDamagedStreams: the shift byte and the stream length
// are checked, so a stream of another layout is an error, not garbage.
func TestDeltaRejectsDamagedStreams(t *testing.T) {
	enc, _ := Delta{}.Encode(int64Bytes(1, 2, 300), 8)
	for name, bad := range map[string][]byte{
		"empty":      nil,
		"shift 64":   append([]byte{64}, enc[1:]...),
		"truncated":  enc[:len(enc)-1],
		"trailing":   append(append([]byte{}, enc...), 0),
		"open tail":  append(append([]byte{}, enc[:len(enc)-1]...), 0x80),
		"no payload": enc[:1],
	} {
		if _, err := (Delta{}).Decode(bad, 24, 8); err == nil {
			t.Errorf("%s: damaged delta stream decoded", name)
		}
	}
}

// FuzzCodecDecode feeds arbitrary bytes to every codec's decoder at both
// element widths: a decoder must return an error or exactly the number
// of bytes it was asked for — never panic, never read or allocate past
// what the claimed size allows (the bit reader's nine-byte straddle and
// delta's shift byte are the classic sites). DecodeInto must agree with
// Decode — the same success or failure, the same bytes — and write
// nothing outside dst, which is handed over as the middle of a
// canary-filled buffer.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{64, 1, 2, 3}, uint16(24))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint16(64))
	for _, name := range Names() {
		c, _ := ByName(name)
		for _, src := range [][]byte{smoothField(64), sparseField(64), int64Bytes(-8, 8, 1<<40)} {
			if enc, err := c.Encode(src, 8); err == nil {
				f.Add(enc, uint16(len(src)))
				f.Add(enc[:len(enc)/2], uint16(len(src)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, enc []byte, size uint16) {
		for _, name := range Names() {
			c, _ := ByName(name)
			for _, elem := range []int{4, 8} {
				dstSize := int(size) / elem * elem
				dec, err := c.Decode(enc, dstSize, elem)
				if err == nil && len(dec) != dstSize {
					t.Fatalf("%s/%d: decoded %d bytes, asked for %d", name, elem, len(dec), dstSize)
				}
				const canary, pad = 0xA5, 16
				into := bytes.Repeat([]byte{canary}, pad+dstSize+pad)
				dst := into[pad : pad+dstSize]
				errInto := c.DecodeInto(dst, enc, elem)
				if (errInto == nil) != (err == nil) {
					t.Fatalf("%s/%d: DecodeInto error %v, Decode error %v", name, elem, errInto, err)
				}
				if err == nil && !bytes.Equal(dst, dec) {
					t.Fatalf("%s/%d: DecodeInto and Decode disagree", name, elem)
				}
				if bytes.Count(into[:pad], []byte{canary}) != pad || bytes.Count(into[pad+dstSize:], []byte{canary}) != pad {
					t.Fatalf("%s/%d: DecodeInto wrote outside dst", name, elem)
				}
			}
		}
	})
}

func benchCodec(b *testing.B, c Codec, src []byte, decode bool) {
	enc, err := c.Encode(src, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decode {
			_, err = c.Decode(enc, len(src), 8)
		} else {
			_, err = c.Encode(src, 8)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGorillaEncodeRounded(b *testing.B) {
	benchCodec(b, Gorilla{}, roundedField(100000), false)
}
func BenchmarkGorillaDecodeRounded(b *testing.B) {
	benchCodec(b, Gorilla{}, roundedField(100000), true)
}
func BenchmarkDeltaEncodeRounded(b *testing.B) { benchCodec(b, Delta{}, roundedField(100000), false) }
func BenchmarkDeltaDecodeRounded(b *testing.B) { benchCodec(b, Delta{}, roundedField(100000), true) }

// TestElementCodecsRejectPartialElements: an element codec refuses a
// buffer that is not a whole number of elements, on both sides — it
// used to encode the whole elements and let the tail decode as zeros.
func TestElementCodecsRejectPartialElements(t *testing.T) {
	src := roundedField(4)
	for _, c := range []Codec{Delta{}, Gorilla{}} {
		if _, err := c.Encode(src[:12], 8); err == nil {
			t.Errorf("%s: encoded 12 bytes as 8-byte elements", c.Name())
		}
		enc, err := c.Encode(src[:16], 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecodeInto(make([]byte, 12), enc, 8); err == nil {
			t.Errorf("%s: decoded 8-byte elements into 12 bytes", c.Name())
		}
		if _, err := c.Decode(enc, 12, 8); err == nil {
			t.Errorf("%s: Decode to 12 bytes of 8-byte elements succeeded", c.Name())
		}
	}
	if _, err := (Gorilla{}).Encode(src[:6], 4); err == nil {
		t.Error("gorilla: encoded 6 bytes as 4-byte elements")
	}
}

// TestDeltaEncodeAllocs: once the scratch pool is warm, Delta.Encode
// allocates only its exact-size result.
func TestDeltaEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	src := roundedField(16384)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (Delta{}).Encode(src, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Delta.Encode allocates %v times per call, want 1", allocs)
	}
}
