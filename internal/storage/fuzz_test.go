package storage

import (
	"bytes"
	"testing"
)

// vectorFrame stores segs through a compressing store with a fixed
// codec and returns the framed object that reached the inner store.
func vectorFrame(t testing.TB, codec string, segs [][]byte) []byte {
	t.Helper()
	inner := NewMemory(nil, 1, 1e8)
	if err := NewCompressing(inner, CompressionOptions{Codec: codec}).PutVec("obj", segs); err != nil {
		t.Fatalf("PutVec(%s): %v", codec, err)
	}
	obj, err := inner.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder: it must
// never panic or over-allocate, and anything it accepts must store
// through the pipeline with the parsed header's codec and read back as
// the same raw payload — the same contract the batch-codec fuzz target
// holds in internal/cluster.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte("not a frame"))
	f.Add([]byte("DCF1"))
	f.Add([]byte("DCF2"))
	seed := func(codec string, raw []byte, elem int) {
		obj, err := encodeFrame(codec, raw, elem)
		if err == nil {
			f.Add(obj)
			f.Add(obj[:len(obj)-1])
		}
	}
	seed("none", []byte("plain payload"), 1)
	seed("rle", bytes.Repeat([]byte{0, 0, 9}, 100), 1)
	seed("gorilla", make([]byte, 256), 8)
	seed("delta", make([]byte, 256), 8)
	seed("flate", bytes.Repeat([]byte("abc"), 50), 1)
	// Multi-part frames — headers, an encoded block, a raw block — and
	// their truncations inside the part table and inside a part.
	block := smoothFloats(standaloneBytes / 8)
	segs := [][]byte{[]byte("batch header"), block, []byte("hdr"), incompressible(standaloneBytes), {}, block[:4096]}
	for _, codec := range []string{"none", "gorilla", "delta", "rle", "flate"} {
		obj := vectorFrame(f, codec, segs)
		f.Add(obj)
		for _, cut := range []int{len(frameMagic) + 1 + len(codec) + 8 + partEntryLen + 3, len(obj) / 2, len(obj) - 1} {
			f.Add(obj[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, h, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if len(raw) != h.RawSize {
			t.Fatalf("decoded %d bytes, header claims %d", len(raw), h.RawSize)
		}
		if h.RawSize > frameSlack*(len(h.Parts)+1)+maxFrameExpansion*len(data) {
			t.Fatalf("accepted %d raw bytes from a %d-byte frame", h.RawSize, len(data))
		}
		raw2, h2, err := DecodeFrame(vectorFrame(t, h.Codec, [][]byte{raw}))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if (h2.Codec != h.Codec && h2.Codec != "none") || !bytes.Equal(raw2, raw) {
			t.Fatalf("round trip not stable: %+v vs %+v", h, h2)
		}
	})
}
