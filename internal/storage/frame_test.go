package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/compress"
)

// framePayload builds a deterministic payload of n bytes whose length
// is a multiple of every element size under test and whose content is
// structured enough that every codec exercises its real encode path.
func framePayload(n int) []byte {
	out := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := 100.0 + math.Sin(float64(i)/64.0)
		binary.LittleEndian.PutUint64(out[i:], math.Float64bits(v))
	}
	return out
}

// encodeFrame builds a one-part frame the strict way: the part goes
// through the named codec with the given element size whatever comes
// out, where the store would fall back to a raw part. It is the
// reference the parser and decoder are tested against.
func encodeFrame(codecName string, raw []byte, elemSize int) ([]byte, error) {
	codec, err := compress.ByName(codecName)
	if err != nil {
		return nil, err
	}
	enc, err := codec.Encode(raw, elemSize)
	if err != nil {
		return nil, err
	}
	var w frameWriter
	w.add(len(raw), elemSize, enc)
	return FlattenSegs(w.finish(codec.Name())), nil
}

// TestFrameRoundTrip: every codec × element size × payload shape must
// survive encode-frame-decode byte-for-byte, and the parsed header
// must describe the object truthfully.
func TestFrameRoundTrip(t *testing.T) {
	payloads := map[string][]byte{
		"empty":   {},
		"small":   framePayload(64),
		"typical": framePayload(64 << 10),
		"runs":    bytes.Repeat([]byte{0, 0, 0, 7}, 4096),
	}
	for _, codec := range compress.Names() {
		for _, elem := range []int{1, 4, 8} {
			if codec == "delta" && elem != 8 {
				continue // delta is 8-byte only
			}
			if codec == "gorilla" && elem == 1 {
				continue // gorilla is 4/8-byte only
			}
			for label, raw := range payloads {
				obj, err := encodeFrame(codec, raw, elem)
				if err != nil {
					t.Fatalf("%s/%d/%s: encodeFrame: %v", codec, elem, label, err)
				}
				if !IsFramed(obj) {
					t.Fatalf("%s/%d/%s: encoded object not recognized as framed", codec, elem, label)
				}
				h, enc, err := ParseFrameHeader(obj)
				if err != nil {
					t.Fatalf("%s/%d/%s: ParseFrameHeader: %v", codec, elem, label, err)
				}
				if h.Codec != codec || h.RawSize != len(raw) || h.EncodedSize != len(enc) ||
					len(h.Parts) != 1 || h.Parts[0] != (FramePart{len(raw), len(enc), elem}) {
					t.Fatalf("%s/%d/%s: header %+v does not describe %d raw bytes", codec, elem, label, h, len(raw))
				}
				got, h2, err := DecodeFrame(obj)
				if err != nil {
					t.Fatalf("%s/%d/%s: DecodeFrame: %v", codec, elem, label, err)
				}
				if !bytes.Equal(got, raw) {
					t.Fatalf("%s/%d/%s: round trip differs (%d vs %d bytes)", codec, elem, label, len(got), len(raw))
				}
				if !reflect.DeepEqual(h2, h) {
					t.Fatalf("%s/%d/%s: DecodeFrame header %+v != ParseFrameHeader %+v", codec, elem, label, h2, h)
				}
			}
		}
	}
}

// TestFrameRejectsUnalignedElements: a part that is not a multiple of
// its element size never reaches an element codec — a Gorilla part
// would silently drop the trailing partial element. The store derives
// the width from the part's length, and the parser rejects a table
// entry that claims otherwise.
func TestFrameRejectsUnalignedElements(t *testing.T) {
	raw := smoothFloats(3)[:17]
	h, _, err := ParseFrameHeader(vectorFrame(t, "gorilla", [][]byte{raw}))
	if err != nil || h.Codec != "none" || h.Parts[0].ElemSize != 0 {
		t.Fatalf("17 bytes through a gorilla store: %+v, %v; want a raw part", h, err)
	}
	obj, err := encodeFrame("gorilla", raw[:16], 8)
	if err != nil {
		t.Fatal(err)
	}
	table := len(frameMagic) + 1 + len("gorilla") + 8
	binary.LittleEndian.PutUint32(obj[table-8:], 17) // header raw size
	binary.LittleEndian.PutUint32(obj[table:], 17)   // part raw size
	if _, _, err := ParseFrameHeader(obj); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("17 raw bytes with 8-byte elements: %v, want ErrCorruptFrame", err)
	}
}

// TestFrameUnknownCodec: the header parser must reject unknown codec
// names with the shared sentinel (the write side does the same, see
// TestCompressingUnknownCodecConfig), so a corrupt store reports the
// same way everywhere.
func TestFrameUnknownCodec(t *testing.T) {
	// Hand-build a frame whose header names a codec that does not exist.
	obj := append([]byte{}, frameMagic...)
	obj = append(obj, 5)
	obj = append(obj, "bogus"...)
	obj = binary.LittleEndian.AppendUint32(obj, 1) // raw size
	obj = binary.LittleEndian.AppendUint32(obj, 1) // one part
	obj = binary.LittleEndian.AppendUint32(obj, 1)
	obj = binary.LittleEndian.AppendUint32(obj, 1)
	obj = append(obj, 1, 'x')
	if _, _, err := ParseFrameHeader(obj); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bogus codec name: %v, want ErrCorruptFrame", err)
	}
	if _, _, err := ParseFrameHeader(obj); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("bogus codec name: %v, want wrapped ErrUnknownCodec", err)
	}
}

// TestFrameNotFramed: plain objects must be reported as unframed, not
// corrupt.
func TestFrameNotFramed(t *testing.T) {
	for _, obj := range [][]byte{nil, {}, []byte("x"), []byte("DMB1 something else")} {
		if IsFramed(obj) {
			t.Fatalf("%q reported framed", obj)
		}
		if _, _, err := ParseFrameHeader(obj); !errors.Is(err, ErrNotFramed) {
			t.Fatalf("%q: %v, want ErrNotFramed", obj, err)
		}
		if _, _, err := DecodeFrame(obj); !errors.Is(err, ErrNotFramed) {
			t.Fatalf("%q: DecodeFrame %v, want ErrNotFramed", obj, err)
		}
	}
}

// TestFrameTruncationAndCorruption: every strict prefix of a valid
// frame, and every single-byte corruption of its header, must come
// back as a clean error — never a panic, never silent success with
// wrong bytes.
func TestFrameTruncationAndCorruption(t *testing.T) {
	raw := framePayload(4096)
	for _, codec := range compress.Names() {
		obj, err := encodeFrame(codec, raw, 8)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(obj); cut++ {
			trunc := obj[:cut]
			if got, _, err := DecodeFrame(trunc); err == nil && !bytes.Equal(got, raw) {
				t.Fatalf("%s: truncation at %d decoded silently to wrong bytes", codec, cut)
			}
		}
		// Flip each header byte (the payload region is the codec's own
		// robustness problem, covered by the fuzz targets).
		hdrLen := len(frameMagic) + 1 + len(codec) + 8 + partEntryLen
		for i := len(frameMagic); i < hdrLen; i++ {
			mut := append([]byte(nil), obj...)
			mut[i] ^= 0xff
			got, _, err := DecodeFrame(mut)
			if err == nil && !bytes.Equal(got, raw) {
				t.Fatalf("%s: header corruption at %d decoded silently to wrong bytes", codec, i)
			}
		}
	}
}

// TestFrameImplausibleRawSize: a header claiming a raw size far beyond
// what any registered codec can expand to must be rejected before
// allocation.
func TestFrameImplausibleRawSize(t *testing.T) {
	obj := append([]byte{}, frameMagic...)
	obj = append(obj, 3)
	obj = append(obj, "rle"...)
	obj = binary.LittleEndian.AppendUint32(obj, math.MaxUint32) // raw size
	obj = binary.LittleEndian.AppendUint32(obj, 1)              // one part
	obj = binary.LittleEndian.AppendUint32(obj, math.MaxUint32)
	obj = binary.LittleEndian.AppendUint32(obj, 3)
	obj = append(obj, 1, 1, 2, 3)
	if _, _, err := ParseFrameHeader(obj); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("4 GiB raw from 3 encoded bytes: %v, want ErrCorruptFrame", err)
	}
}

// TestFrameHeaderRatio spot-checks the reporting helper.
func TestFrameHeaderRatio(t *testing.T) {
	h := FrameHeader{RawSize: 600, EncodedSize: 100}
	if h.Ratio() != 6 {
		t.Fatalf("Ratio = %v, want 6", h.Ratio())
	}
}

// roundedFloats returns n smooth float64 values kept to 2^-10
// resolution — 18 significant bits, the field the shifted delta codec is
// built for.
func roundedFloats(n int) []byte {
	out := make([]byte, n*8)
	for i := 0; i < n; i++ {
		v := math.Round((300+8*math.Sin(float64(i)/60))*1024) / 1024
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// TestPutVecRoundTripProperty: whatever the segmentation, PutVec then
// Get returns the concatenation of the segments, on every codec and the
// adaptive selector, over Memory and SDF; the stored frame's parts
// follow the one rule — a segment of standaloneBytes or more is a part,
// runs of smaller ones coalesce.
func TestPutVecRoundTripProperty(t *testing.T) {
	lengths := []int{0, 1, 7, 8, 100, 4095, 4096, standaloneBytes - 1, standaloneBytes,
		standaloneBytes + 5, standaloneBytes + 8, 2*standaloneBytes + 24}
	fills := []func(int) []byte{
		func(n int) []byte { return roundedFloats(n/8 + 1)[:n] },
		func(n int) []byte { return smoothFloats(n/8 + 1)[:n] },
		incompressible,
		sparseMask,
	}
	r := rand.New(rand.NewSource(23))
	for _, kind := range []Kind{KindMemory, KindSDF} {
		for _, codecName := range append(compress.Names(), AdaptiveCodec) {
			inner := newBackend(t, kind, nil)
			b := NewCompressing(inner, CompressionOptions{Codec: codecName})
			for trial := 0; trial < 12; trial++ {
				segs := make([][]byte, r.Intn(7))
				var wantParts []int
				inRun := false
				for i := range segs {
					n := lengths[r.Intn(len(lengths))]
					segs[i] = fills[r.Intn(len(fills))](n)
					if n >= standaloneBytes || !inRun {
						wantParts = append(wantParts, 0)
					}
					wantParts[len(wantParts)-1] += n
					inRun = n < standaloneBytes
				}
				name := fmt.Sprintf("%s-%s-d%d-it%06d", kind, codecName, trial%3, trial)
				if err := b.PutVec(name, segs); err != nil {
					t.Fatalf("%s: PutVec: %v", name, err)
				}
				want := FlattenSegs(segs)
				got, err := b.Get(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: Get returned %d bytes (%v), want %d", name, len(got), err, len(want))
				}
				stored, err := inner.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				h, _, err := ParseFrameHeader(stored)
				if err != nil {
					t.Fatalf("%s: stored object: %v", name, err)
				}
				var gotParts []int
				for _, p := range h.Parts {
					gotParts = append(gotParts, p.RawSize)
				}
				if !slices.Equal(gotParts, wantParts) {
					t.Fatalf("%s: parts %v, want %v", name, gotParts, wantParts)
				}
				if h.RawSize != len(want) || h.EncodedSize > len(want) {
					t.Fatalf("%s: header %+v for a %d-byte object", name, h, len(want))
				}
			}
		}
	}
}

// TestFrameCorruptTable: every way a vector frame can be damaged comes
// back as ErrCorruptFrame — never a panic, never an allocation sized by
// a lying field.
func TestFrameCorruptTable(t *testing.T) {
	block := roundedFloats(standaloneBytes / 8)
	obj := vectorFrame(t, "delta", [][]byte{[]byte("batch header"), block, []byte("hdr"), block})
	if h, _, err := ParseFrameHeader(obj); err != nil || len(h.Parts) != 4 || h.Parts[1].ElemSize != 8 {
		t.Fatalf("test frame: %+v, %v", h, err)
	}
	hdr := len(frameMagic) + 1 + len("delta")
	table := hdr + 8
	payload := table + 4*partEntryLen
	mutate := func(at int, f func(b []byte)) []byte {
		mut := append([]byte(nil), obj...)
		f(mut[at:])
		return mut
	}
	addU32 := func(d uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+d) }
	}
	v1 := append([]byte("DCF1\x04none"), 5, 0, 0, 0, 1, 0, 0, 0)
	for name, bad := range map[string][]byte{
		"truncated part table":      obj[:table+partEntryLen+4],
		"truncated inside a part":   obj[:len(obj)-100],
		"trailing bytes":            append(append([]byte(nil), obj...), 0),
		"part count past the table": mutate(hdr+4, addU32(1<<20)),
		"raw sizes not summing":     mutate(table+partEntryLen, addU32(8)),
		"header raw size off":       mutate(hdr, addU32(8)),
		"encLen past the object":    mutate(table+partEntryLen+4, addU32(1<<24)),
		"raw part with encLen":      mutate(table+4, addU32(1)),
		"element size 200":          mutate(table+partEntryLen+8, func(b []byte) { b[0] = 200 }),
		"implausible part size":     mutate(table+partEntryLen, addU32(1<<30)),
		"flipped byte in a part":    mutate(payload+len("batch header")+300, func(b []byte) { b[0] ^= 0x80 }),
		"delta shift byte":          mutate(payload+len("batch header"), func(b []byte) { b[0] = 64 }),
		"version-1 frame":           append(v1, "hello"...),
	} {
		if raw, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: DecodeFrame = %d bytes, %v; want ErrCorruptFrame", name, len(raw), err)
		}
	}
	// A version-1 object read through the store is reported, not handed
	// back as if it were a plain object.
	inner := NewMemory(nil, 1, 1e8)
	if err := inner.Put("old", append(v1, "hello"...)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompressing(inner, CompressionOptions{}).Get("old"); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Get of a DCF1 object = %v, want ErrCorruptFrame", err)
	}
}

// TestCompressingConcurrentChoice: first Puts of one dataset racing on
// a shared store trial-encode outside the store lock and still end with
// exactly one cached choice, which every object of the dataset uses.
func TestCompressingConcurrentChoice(t *testing.T) {
	inner := NewMemory(nil, 4, 1e8)
	b := NewCompressing(inner, CompressionOptions{})
	block := roundedFloats(standaloneBytes / 8)
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("job-root%03d-it%06d", i%2, i)
			if err := b.PutVec(name, [][]byte{[]byte("hdr"), block}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if len(b.choice) != 2 {
		t.Fatalf("choices cached: %v, want one per dataset", b.choice)
	}
	for i := 0; i < writers; i++ {
		if h := storedHeader(t, inner, fmt.Sprintf("job-root%03d-it%06d", i%2, i)); h.Codec != "delta" {
			t.Fatalf("object %d stored as %+v, want delta", i, h)
		}
	}
	if acc := b.Accounting(); acc.ObjectsCompressed != writers || acc.PerCodec["delta"].Objects != writers {
		t.Fatalf("ledger after racing first Puts: %+v", acc)
	}
}

// vecRecorder is a Memory store that remembers the last segment list it
// was handed.
type vecRecorder struct {
	*Memory
	segs [][]byte
}

func (r *vecRecorder) PutVec(name string, segs [][]byte) error {
	r.segs = segs
	return r.Memory.PutVec(name, segs)
}

// TestPutVecRawPartsAliasSegments: parts stored raw — every part under a
// "none" choice, runs of small segments included — reach the inner
// store as the caller's own segments behind one header segment; the
// pipeline copies no payload it does not encode.
func TestPutVecRawPartsAliasSegments(t *testing.T) {
	inner := &vecRecorder{Memory: NewMemory(nil, 1, 1e8)}
	b := NewCompressing(inner, CompressionOptions{Codec: "none"})
	segs := [][]byte{[]byte("hdr"), incompressible(512), []byte("hdr2"), incompressible(standaloneBytes), []byte("t")}
	if err := b.PutVec("obj", segs); err != nil {
		t.Fatal(err)
	}
	if len(inner.segs) != 1+len(segs) {
		t.Fatalf("inner store received %d segments, want header + %d", len(inner.segs), len(segs))
	}
	for i, seg := range segs {
		if &inner.segs[1+i][0] != &seg[0] {
			t.Fatalf("segment %d was copied on its way to the inner store", i)
		}
	}
	if got, err := b.Get("obj"); err != nil || !bytes.Equal(got, FlattenSegs(segs)) {
		t.Fatalf("round trip: %d bytes, %v", len(got), err)
	}
}
