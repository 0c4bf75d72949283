package chunk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// payload builds a reproducible pseudo-random payload.
func payload(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// reassemble concatenates a chunk list.
func reassemble(chunks [][]byte) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// hashMultiset counts chunk hashes with multiplicity.
func hashMultiset(chunks [][]byte) map[string]int {
	m := map[string]int{}
	for _, c := range chunks {
		m[Sum(c)]++
	}
	return m
}

// sharedBytes sums the raw volume of chunks present in both multisets.
func sharedBytes(a, b [][]byte) int64 {
	bm := hashMultiset(b)
	sizes := map[string]int{}
	for _, c := range b {
		sizes[Sum(c)] = len(c)
	}
	var n int64
	for h, ca := range hashMultiset(a) {
		cb := bm[h]
		if cb < ca {
			ca = cb
		}
		n += int64(ca * sizes[h])
	}
	return n
}

// TestChunkSplitInvariants checks, across sizes and seeds, that Split
// is lossless, deterministic, and respects the min/max bounds.
func TestChunkSplitInvariants(t *testing.T) {
	p := Params{}.withDefaults()
	for _, size := range []int{0, 1, 100, p.Min, p.Min + 1, 4 << 10, 64 << 10, 256 << 10} {
		for seed := int64(1); seed <= 3; seed++ {
			data := payload(seed, size)
			chunks := Split(data, Params{})
			if !bytes.Equal(reassemble(chunks), data) {
				t.Fatalf("size %d seed %d: reassembly mismatch", size, seed)
			}
			again := Split(data, Params{})
			if len(again) != len(chunks) {
				t.Fatalf("size %d seed %d: non-deterministic chunk count", size, seed)
			}
			for i, c := range chunks {
				if !bytes.Equal(c, again[i]) {
					t.Fatalf("size %d seed %d: non-deterministic chunk %d", size, seed, i)
				}
				if len(c) > p.Max {
					t.Fatalf("size %d seed %d: chunk %d is %d bytes, max %d", size, seed, i, len(c), p.Max)
				}
				if i < len(chunks)-1 && len(c) < p.Min {
					t.Fatalf("size %d seed %d: non-final chunk %d is %d bytes, min %d",
						size, seed, i, len(c), p.Min)
				}
			}
		}
	}
}

// TestChunkBoundaryStability is the property the dedup layer rests on:
// editing a span of the payload changes only the chunks overlapping
// (or within one resync window of) that span — everything else keeps
// its content hash and deduplicates. The unshared volume between the
// original and the edited payload must stay within the edit span plus
// a bounded resync region, at every edit offset and payload size.
func TestChunkBoundaryStability(t *testing.T) {
	p := Params{}.withDefaults()
	const editSpan = 37
	// Chunks overlapping the edit plus the max-clamped resync run:
	// generous but still a small fraction of the larger payloads.
	slack := int64(editSpan + 4*p.Max)
	for _, size := range []int{8 << 10, 32 << 10, 128 << 10} {
		for seed := int64(1); seed <= 3; seed++ {
			data := payload(seed, size)
			base := Split(data, Params{})
			for _, off := range []int{0, size / 3, size / 2, size - editSpan - 1} {
				edited := append([]byte(nil), data...)
				for i := 0; i < editSpan; i++ {
					edited[off+i] ^= 0xa5
				}
				mod := Split(edited, Params{})
				if !bytes.Equal(reassemble(mod), edited) {
					t.Fatalf("size %d seed %d off %d: reassembly mismatch", size, seed, off)
				}
				unshared := int64(size) - sharedBytes(base, mod)
				if unshared > slack {
					t.Errorf("size %d seed %d off %d: %d bytes unshared after a %d-byte edit (slack %d)",
						size, seed, off, unshared, editSpan, slack)
				}
			}
		}
	}
}

// TestChunkInsertStability checks the harder variant: inserting bytes
// shifts everything after the edit, and content-defined boundaries must
// still resync (a fixed-size chunker would lose every following chunk).
func TestChunkInsertStability(t *testing.T) {
	p := Params{}.withDefaults()
	size := 64 << 10
	data := payload(7, size)
	base := Split(data, Params{})
	off := size / 2
	ins := payload(8, 100)
	edited := append(append(append([]byte(nil), data[:off]...), ins...), data[off:]...)
	mod := Split(edited, Params{})
	unshared := int64(len(edited)) - sharedBytes(base, mod)
	if slack := int64(len(ins) + 4*p.Max); unshared > slack {
		t.Errorf("insert: %d bytes unshared after a %d-byte insert (slack %d)", unshared, len(ins), slack)
	}
}

// TestChunkSplitGolden pins Split's cut positions bit for bit: a sha256
// over the chunk lengths of seeded payloads, recorded before the
// steady-state loop was rewritten. Any change to the rolling hash, its
// tables or the Min/Max clamps changes every stored chunk's name, so a
// mismatch here means deduplication against existing stores is broken.
func TestChunkSplitGolden(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		size int
		want string
	}{
		{"default", Params{}, 1 << 20, "b190186950c8a82f5f3a6d8ab5ef71182c4bf8b8dae400b3f7a1d6221b0becc9"},
		{"e10", Params{Min: 256, Avg: 1024, Max: 4096}, 256 << 10, "99f3887eb8b99c685287c2780c5b7b63e4d8cbad20e42438f1354fe78b80b795"},
		{"min-below-window", Params{Min: 16, Avg: 64, Max: 256}, 64 << 10, "380608bc0fbd9eca88d9896cf9a98968295ed6c93a77c5b16ce36236cfeb9732"},
		{"data-at-min", Params{}, DefaultMin, "4077913ec9adce69130c9010afec7d5994a42da4349c958905350a57ba96569d"},
		{"data-past-min", Params{}, DefaultMin + 1, "0c5353d6fe420cde9b3680b0fdcfa1b33185e3c63e4dfea394aa70b7a88c819d"},
		{"max-cut", Params{Min: 512, Avg: 4096, Max: 4096}, 64 << 10, "fc8b65dff1aa40676a466a07134587287ad7e3924e812f63bfff2710434619f3"},
	}
	for i, c := range cases {
		h := sha256.New()
		for seed := int64(1); seed <= 3; seed++ {
			for _, piece := range Split(payload(seed*100+int64(i), c.size), c.p) {
				binary.Write(h, binary.LittleEndian, uint32(len(piece)))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: cut digest %s, want %s", c.name, got, c.want)
		}
	}
}

// splitSink keeps BenchmarkSplit's result live.
var splitSink [][]byte

// BenchmarkSplit measures boundary detection alone on 8 MiB of random
// bytes at the default parameters.
func BenchmarkSplit(b *testing.B) {
	data := payload(1, 8<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		splitSink = Split(data, Params{})
	}
}

// TestChunkParamsNormalization pins the defaults and the power-of-two
// rounding the boundary mask depends on.
func TestChunkParamsNormalization(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Min != DefaultMin || p.Avg != DefaultAvg || p.Max != DefaultMax {
		t.Fatalf("defaults: got %+v", p)
	}
	p = Params{Min: 100, Avg: 3000, Max: 5000}.withDefaults()
	if p.Avg != 2048 {
		t.Fatalf("avg 3000 should round to 2048, got %d", p.Avg)
	}
	p = Params{Min: 4096, Avg: 100, Max: 200}.withDefaults()
	if p.Avg < p.Min || p.Max < p.Avg {
		t.Fatalf("normalization left inconsistent params %+v", p)
	}
}
