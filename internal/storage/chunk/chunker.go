// Package chunk implements content-addressed incremental checkpoints:
// a content-defined chunker (rolling-hash boundaries with min/avg/max
// chunk sizes), a content-addressed chunk store layered over any
// object store (storage.Backend), reference-counting garbage collection
// (Retain/Release/Sweep) so a long-lived store does not grow without
// bound, and the store's cost twin for the DES face (Cost).
//
// Checkpoint traffic at scale is dominated by bytes that did not
// change between iterations. The chunker cuts every object at
// positions determined by the content itself, so when iteration N+1
// differs from iteration N in a small span, only the chunks overlapping
// that span get new hashes — everything else deduplicates against the
// chunks iteration N already stored. The paper's dedicated-core model
// (§IV.D) leaves exactly the spare-core budget this costs: chunking and
// hashing run off the critical path, and Cost prices that CPU against
// dedicated-core spare time the same way storage.CodecCost prices the
// compression pipeline.
package chunk

import (
	"crypto/sha256"
	"encoding/hex"
)

// Default chunking parameters: small enough that the few-hundred-KiB
// batch objects the aggregation roots store decompose into dozens of
// chunks (so a partial overwrite dedups), large enough that per-chunk
// overhead (hash, recipe entry, object-store entry) stays under a few
// percent.
const (
	DefaultMin = 512
	DefaultAvg = 2048
	DefaultMax = 8192
)

// chunkWindow is the rolling-hash window width in bytes.
const chunkWindow = 48

// Params bound the content-defined chunk sizes.
type Params struct {
	// Min and Max clamp every chunk's size; Avg sets the expected size
	// by choosing how many hash bits a boundary must match. Avg must be
	// a power of two between Min and Max.
	Min, Avg, Max int
}

// withDefaults fills zero values and normalizes Avg to a power of two.
func (p Params) withDefaults() Params {
	if p.Min <= 0 {
		p.Min = DefaultMin
	}
	if p.Avg <= 0 {
		p.Avg = DefaultAvg
	}
	if p.Max <= 0 {
		p.Max = DefaultMax
	}
	// Round Avg down to a power of two so the boundary mask is exact.
	avg := 1
	for avg*2 <= p.Avg {
		avg *= 2
	}
	p.Avg = avg
	if p.Avg < p.Min {
		p.Avg = p.Min
	}
	if p.Max < p.Avg {
		p.Max = p.Avg
	}
	return p
}

// hashTable is the byte→uint64 substitution table of the rolling hash.
// It is generated deterministically from a fixed seed, so identical
// payloads chunk identically in every process on every platform — the
// property the dedup layer's cross-run stability rests on.
var hashTable = buildHashTable(0x2013_0d0a_1e57_ab1e)

// agedTable is hashTable rotated by the window width: a byte's
// contribution at the moment it leaves the window, having been rotated
// once per step since it entered.
var agedTable = func() (t [256]uint64) {
	for i, v := range hashTable {
		t[i] = rotN(v, chunkWindow)
	}
	return t
}()

// buildHashTable fills the substitution table from a splitmix64 stream.
func buildHashTable(seed uint64) [256]uint64 {
	var t [256]uint64
	x := seed
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}

// rotl64 rotates left by one.
func rotl64(v uint64) uint64 { return v<<1 | v>>63 }

// Split cuts data into content-defined chunks whose concatenation is
// data. The boundaries depend only on the bytes inside the rolling
// window, so inserting or mutating a span of the payload moves only the
// boundaries of chunks overlapping (or immediately following within one
// window of) that span. Split never copies: each chunk aliases data.
//
// The algorithm is a buzhash (cyclic-polynomial) rolling hash over a
// fixed window; a position is a boundary when the low log2(Avg) bits of
// the hash are all ones, clamped to [Min, Max].
func Split(data []byte, p Params) [][]byte {
	p = p.withDefaults()
	if len(data) == 0 {
		return nil
	}
	mask := uint64(p.Avg - 1)
	// Chunks average Min+Avg bytes, so this is one allocation.
	chunks := make([][]byte, 0, len(data)/p.Avg+1)
	for len(data) > 0 {
		n := len(data)
		if n > p.Min {
			n = cut(data[:min(n, p.Max)], p.Min, mask)
		}
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// cut returns the length of the chunk that starts win: one past the
// first position at or after minLen where the rolling hash matches
// mask, or len(win) (the Max clamp) if none does.
func cut(win []byte, minLen int, mask uint64) int {
	// Warm the window over the Min-prefix so the first eligible cut
	// position already sees a full window of context.
	warm := max(minLen-chunkWindow, 0)
	var h uint64
	for _, b := range win[warm:minLen] {
		h = rotl64(h) ^ hashTable[b]
	}
	// Only when Min is shorter than the window do the first positions
	// have no byte leaving the window yet.
	i := minLen
	for ; i < min(warm+chunkWindow, len(win)); i++ {
		if h = rotl64(h) ^ hashTable[win[i]]; h&mask == mask {
			return i + 1
		}
	}
	// Steady state: one rotate, the byte entering and the byte leaving.
	for ; i < len(win); i++ {
		if h = rotl64(h) ^ hashTable[win[i]] ^ agedTable[win[i-chunkWindow]]; h&mask == mask {
			return i + 1
		}
	}
	return len(win)
}

// rotN rotates left by n (n < 64).
func rotN(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }

// Sum returns the content hash naming a chunk: lowercase-hex SHA-256.
func Sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}
