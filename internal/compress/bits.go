// Package compress implements the lossless codecs used by the data-
// management plugins (§IV.D: "we used this spare time to add data
// compression in files, and achieved a 600% compression ratio without any
// overhead on the simulation").
//
// Codecs:
//
//   - Gorilla: XOR-based float compression (Pelkonen et al., VLDB 2015
//     style) specialized for smooth scientific fields, for float64 and
//     float32 elements;
//   - Delta: zig-zag delta + varint for 8-byte elements, taken after
//     shifting out the trailing zero bits all elements share (one
//     leading shift byte) — integer counters, and float64 fields kept
//     to a physical resolution, whose 17–18 significant bits then cost
//     one or two bytes per element;
//   - RLE: byte run-length encoding for masks and mostly-constant data;
//   - Flate: the stdlib DEFLATE as a general-purpose baseline.
//
// All codecs operate on raw []byte with a known element type, so the SDF
// writer can apply them per dataset.
package compress

import "encoding/binary"

// bitWriter packs bits most-significant-first into a byte slice through
// a 64-bit accumulator: a write is one shift-or, and eight bytes leave
// at a time when the accumulator fills.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits, right-aligned
	n   uint   // pending bits in acc, 0..64
}

// writeBits writes the low n bits of v (n ≤ 64), most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	v &= 1<<n - 1 // all ones at n = 64
	if free := 64 - w.n; n > free {
		// Top up the accumulator, flush it, keep the remainder.
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>(n-free))
		n -= free
		w.acc, w.n = v&(1<<n-1), n
		return
	}
	w.acc = w.acc<<n | v
	w.n += n
}

// finish flushes the pending bits (the last byte zero-padded) and
// returns the buffer.
func (w *bitWriter) finish() []byte {
	if w.n > 0 {
		nb := (w.n + 7) / 8
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], w.acc<<(64-w.n))
		w.buf = append(w.buf, tail[:nb]...)
		w.acc, w.n = 0, 0
	}
	return w.buf
}

// bitReader reads bits most-significant-first from a byte slice, one
// 64-bit window per look.
type bitReader struct {
	buf []byte
	pos uint // bit position, at most len(buf)*8
}

// peek returns the next 64 bits of the stream, zero-padded past its end.
func (r *bitReader) peek() uint64 {
	i, off := r.pos>>3, r.pos&7
	if i+9 <= uint(len(r.buf)) {
		return binary.BigEndian.Uint64(r.buf[i:])<<off | uint64(r.buf[i+8])>>(8-off)
	}
	var w uint64
	for k, b := range r.buf[i:] { // at most eight bytes are left
		w |= uint64(b) << (56 - 8*uint(k))
	}
	return w << off
}

// skip consumes n bits; it reports false, consuming nothing, when the
// stream holds fewer.
func (r *bitReader) skip(n uint) bool {
	if r.pos+n > uint(len(r.buf))*8 {
		return false
	}
	r.pos += n
	return true
}

// readBits reads the next n bits (n ≤ 64).
func (r *bitReader) readBits(n uint) (uint64, bool) {
	return r.peek() >> (64 - n), r.skip(n)
}
