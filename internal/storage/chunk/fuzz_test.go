package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// FuzzChunkFrameDecode hardens the recipe decoder — which also decodes
// every pack index — against hostile stores: corrupt hashes, truncated
// chunk lists and inflated counts must surface as typed errors — never a
// panic, and never an allocation the object's own length cannot justify.
func FuzzChunkFrameDecode(f *testing.F) {
	valid, err := encodeRecipe([]entry{
		{sum: sha256.Sum256([]byte("alpha")), size: 5},
		{sum: sha256.Sum256([]byte("beta")), size: 2048},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])        // truncated chunk list
	f.Add(valid[:recipeHeaderLen])     // header only, entries missing
	f.Add([]byte("DCK1"))              // bare magic
	f.Add([]byte("DCF1 not a recipe")) // foreign magic
	f.Add([]byte{})                    // empty
	huge := append([]byte(nil), valid...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff // absurd count
	f.Add(huge)
	// Pack indexes as a Put writes them: a real store's, whole and cut
	// at an entry boundary, mid-entry and mid-header.
	mem := newMem()
	if err := New(mem, Options{}).Put("obj", payload(3, 24<<10)); err != nil {
		f.Fatal(err)
	}
	indexes, err := indexNames(mem)
	if err != nil || len(indexes) != 1 {
		f.Fatalf("want one pack index, got %v (err %v)", indexes, err)
	}
	index, err := mem.Get(indexes[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index)
	f.Add(index[:recipeHeaderLen+2*recipeEntryLen])
	f.Add(index[:len(index)-recipeEntryLen/2])
	f.Add(index[:recipeHeaderLen-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks, rawSize, err := DecodeRecipe(data)
		if err != nil {
			if !errors.Is(err, ErrNotChunked) && !errors.Is(err, ErrCorruptRecipe) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// The per-entry footprint bounds any successful decode: a corrupt
		// count cannot have driven an allocation beyond the input length.
		if chunks*recipeEntryLen > len(data) {
			t.Fatalf("%d entries decoded from %d bytes", chunks, len(data))
		}
		ents, raw, err := decodeRecipe(data)
		if err != nil || len(ents) != chunks || raw != rawSize {
			t.Fatalf("internal decode disagrees: %d entries, %d bytes (err %v)", len(ents), raw, err)
		}
		var sum int64
		for _, e := range ents {
			if e.size <= 0 {
				t.Fatalf("invalid entry survived decode: %+v", e)
			}
			sum += int64(e.size)
		}
		if sum != rawSize {
			t.Fatalf("decoded sizes sum to %d, header said %d", sum, rawSize)
		}
		// Round trip: re-encoding a valid decode must reproduce the
		// canonical bytes, and decode again identically.
		enc, err := encodeRecipe(ents)
		if err != nil {
			t.Fatalf("re-encode of valid decode failed: %v", err)
		}
		chunks2, raw2, err := DecodeRecipe(enc)
		if err != nil || raw2 != rawSize || chunks2 != chunks {
			t.Fatalf("re-decode mismatch (err %v)", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("valid recipe did not re-encode canonically")
		}
	})
}

// FuzzSplitSegments: the walk over a segment list cuts the chunks Split
// cuts from the flattened bytes, wherever the segment edges fall. The
// payload and the edges come from the input; each byte of cuts is one
// segment's length, so empty and short segments are common.
func FuzzSplitSegments(f *testing.F) {
	f.Add(payload(1, 2<<10), []byte{30, 0, 1, 47, 48, 49, 255})
	f.Add(payload(2, 600), []byte{0, 0, 16, 64})
	f.Add([]byte("DCK1 recipe magic"), []byte{2, 2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		lens := make([]int, len(cuts))
		for i, c := range cuts {
			lens[i] = int(c)
		}
		segs := cutAt(data, lens)
		for _, p := range paramSets {
			if got, want := walkChunks(segs, p), Split(data, p); !equalChunks(got, want) {
				t.Fatalf("params %+v: %d segments cut into %d chunks, the flat bytes into %d",
					p, len(segs), len(got), len(want))
			}
		}
	})
}
