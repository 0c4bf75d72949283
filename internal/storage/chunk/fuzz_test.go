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
		refs, rawSize, err := DecodeRecipe(data)
		if err != nil {
			if !errors.Is(err, ErrNotChunked) && !errors.Is(err, ErrCorruptRecipe) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// The per-entry footprint bounds any successful decode: a corrupt
		// count cannot have driven an allocation beyond the input length.
		if len(refs)*recipeEntryLen > len(data) {
			t.Fatalf("%d entries decoded from %d bytes", len(refs), len(data))
		}
		var sum int64
		for _, r := range refs {
			if r.Bytes <= 0 || len(r.Hash) != 2*sha256.Size {
				t.Fatalf("invalid ref survived decode: %+v", r)
			}
			sum += int64(r.Bytes)
		}
		if sum != rawSize {
			t.Fatalf("decoded sizes sum to %d, header said %d", sum, rawSize)
		}
		// Round trip: re-encoding a valid decode must reproduce the
		// canonical bytes, and decode again identically.
		ents, _, err := decodeRecipe(data)
		if err != nil {
			t.Fatalf("internal decode disagrees: %v", err)
		}
		enc, err := encodeRecipe(ents)
		if err != nil {
			t.Fatalf("re-encode of valid decode failed: %v", err)
		}
		refs2, raw2, err := DecodeRecipe(enc)
		if err != nil || raw2 != rawSize || len(refs2) != len(refs) {
			t.Fatalf("re-decode mismatch (err %v)", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("valid recipe did not re-encode canonically")
		}
	})
}
