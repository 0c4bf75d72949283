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
// the hash are all ones, clamped to [Min, Max]. Split is the
// one-segment case of the walk the store's PutVec runs.
func Split(data []byte, p Params) [][]byte {
	p = p.withDefaults()
	if len(data) == 0 {
		return nil
	}
	// Chunks average Min+Avg bytes, so this is one allocation.
	chunks := make([][]byte, 0, len(data)/p.Avg+1)
	walk([][]byte{data}, p, func(c []byte) { chunks = append(chunks, c) })
	return chunks
}

// walk cuts the concatenation of segs into content-defined chunks, at
// the positions Split would cut the flattened bytes, and hands each to
// emit in order; p has its defaults filled. A chunk's cut window (the
// next Max bytes) that lies inside one segment is cut there, and emit
// sees a sub-slice of that segment. A window that crosses a segment
// edge is copied into one reusable Max-byte bridge and cut there;
// emit's view of that chunk is valid only until emit returns.
func walk(segs [][]byte, p Params, emit func(chunk []byte)) {
	mask := uint64(p.Avg - 1)
	rest := 0
	for _, seg := range segs {
		rest += len(seg)
	}
	var bridge []byte
	at := cursor{segs: segs}
	for rest > 0 {
		n := min(rest, p.Max)
		win := at.head()
		if len(win) >= n {
			win = win[:n]
		} else {
			if bridge == nil {
				bridge = make([]byte, p.Max)
			}
			win = at.peek(bridge[:n])
		}
		if n > p.Min {
			n = cut(win, p.Min, mask)
		}
		emit(win[:n])
		at.skip(n)
		rest -= n
	}
}

// cursor is a read position in a segment list.
type cursor struct {
	segs [][]byte
	i    int  // current segment
	off  int  // offset in it
	kept bool // the last piece take appended ends at the cursor
}

// head returns the unread bytes of the current segment, stepping past
// exhausted and empty segments. Some byte must be left to read.
func (c *cursor) head() []byte {
	for c.off == len(c.segs[c.i]) {
		c.i, c.off = c.i+1, 0
	}
	return c.segs[c.i][c.off:]
}

// peek copies the next len(dst) bytes into dst without moving.
func (c *cursor) peek(dst []byte) []byte {
	i, off := c.i, c.off
	for n := 0; n < len(dst); i, off = i+1, 0 {
		n += copy(dst[n:], c.segs[i][off:])
	}
	return dst
}

// skip moves n bytes forward.
func (c *cursor) skip(n int) {
	for n > 0 {
		k := min(n, len(c.head()))
		c.off += k
		n -= k
	}
	c.kept = false
}

// take moves n bytes forward and appends the bytes it passes to dst as
// sub-slices of their segments. Bytes that continue dst's last piece in
// the same segment grow it, so a run of taken bytes inside one segment
// is one piece.
func (c *cursor) take(n int, dst [][]byte) [][]byte {
	for n > 0 {
		h := c.head()
		k := min(n, len(h))
		if c.kept && c.off > 0 {
			last := dst[len(dst)-1]
			dst[len(dst)-1] = last[:len(last)+k]
		} else {
			dst = append(dst, h[:k])
		}
		c.off += k
		n -= k
		c.kept = true
	}
	return dst
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
	// From here the hash is kept complemented, which commutes with the
	// rotate and the xors, so a boundary (every mask bit set) is a test
	// against zero.
	h = ^h
	// Only when Min is shorter than the window do the first positions
	// have no byte leaving the window yet.
	i := minLen
	for ; i < min(warm+chunkWindow, len(win)); i++ {
		if h = rotl64(h) ^ hashTable[win[i]]; h&mask == 0 {
			return i + 1
		}
	}
	if i == len(win) {
		return i
	}
	// Steady state: the bytes entering and leaving the window, sliced to
	// one length so the loop carries no bounds check. Their table
	// entries are combined before they meet the hash, so the
	// loop-carried chain is one rotate and one xor.
	in := win[i:]
	out := win[i-chunkWindow:][:len(in)]
	for j, b := range in {
		if h = rotl64(h) ^ (hashTable[b] ^ agedTable[out[j]]); h&mask == 0 {
			return i + j + 1
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
