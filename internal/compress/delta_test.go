package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refDeltaEncode is the three-pass delta encoder the stream format was
// defined with: an OR pass for the shift, a size pass, and the encode
// pass into an exact-size buffer. Delta.Encode must produce its bytes.
func refDeltaEncode(src []byte) []byte {
	var or uint64
	for i := 0; i+8 <= len(src); i += 8 {
		or |= binary.LittleEndian.Uint64(src[i:])
	}
	shift := uint(bits.TrailingZeros64(or)) & 63
	size := 1
	var prev int64
	for i := 0; i+8 <= len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(src[i:])) >> shift
		size += (bits.Len64(zigzag(v-prev)|1) + 6) / 7
		prev = v
	}
	out := make([]byte, size)
	out[0] = byte(shift)
	pos := 1
	prev = 0
	for i := 0; i+8 <= len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(src[i:])) >> shift
		pos += binary.PutUvarint(out[pos:], zigzag(v-prev))
		prev = v
	}
	return out
}

// refDeltaDecode is the reference decoder: one Uvarint per element, the
// shift byte and the stream length checked.
func refDeltaDecode(enc []byte, dstSize int) ([]byte, error) {
	if len(enc) == 0 || enc[0] > 63 {
		return nil, fmt.Errorf("no valid shift byte")
	}
	shift := uint(enc[0])
	out := make([]byte, dstSize)
	var prev int64
	pos := 1
	for i := 0; i+8 <= dstSize; i += 8 {
		z, k := binary.Uvarint(enc[pos:])
		if k <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		pos += k
		prev += int64(z>>1) ^ -int64(z&1)
		binary.LittleEndian.PutUint64(out[i:], uint64(prev)<<shift)
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("%d trailing bytes", len(enc)-pos)
	}
	return out, nil
}

// varintLadder returns elements whose successive zig-zag deltas take
// 1, 2, … 9 varint bytes, then 10 (MinInt64 to 0), then a short mix.
func varintLadder() []byte {
	vals := []int64{1}
	for k := 1; k <= 9; k++ {
		vals = append(vals, vals[len(vals)-1]+int64(1)<<(7*k-2)) // z = 2^(7k-1): k bytes
	}
	vals = append(vals, math.MinInt64, 0, 3, 3+200, 3+200+20000, -1<<40, math.MaxInt64)
	return int64Bytes(vals...)
}

// randomDeltas returns n elements whose deltas draw their magnitude
// from every varint length, all multiplied by 2^shift.
func randomDeltas(r *rand.Rand, n int, shift uint) []byte {
	vals := make([]int64, n)
	var v int64
	for i := range vals {
		width := uint(r.Intn(64))
		d := int64(r.Uint64() & (1<<width - 1))
		if r.Intn(2) == 0 {
			d = -d
		}
		v += d
		vals[i] = v << shift
	}
	return int64Bytes(vals...)
}

// TestDeltaStreamGolden pins the delta stream: the hashes were recorded
// with the three-pass encoder, so any rewrite of Delta.Encode must
// produce the same bytes, and stores written before it stay readable.
func TestDeltaStreamGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		src   []byte
		shift byte
		size  int
		sum   string
	}{
		{"varint ladder", varintLadder(), 0, 89, "ae6a409408ac2fe132b824f17e3bbb0bb9095b3a4661146f7bcd38749a98b2b0"},
		{"mixed sign", int64Bytes(-64, 64, -128, 192, 0, math.MinInt64, math.MaxInt64&^63), 6, 24, "5107857638ef8da7af821b942cff6e81d3a81ccd86d89401525f8b3580b6b376"},
		{"all zero", make([]byte, 800), 0, 101, "e08dd9962eedb16e12840ea2a977cc07bc5fa8d96259682edaa080573d525e4c"},
		{"rounded field", roundedField(16384), 34, 27669, "ce1b323c670b1e90cf276b7b1797d1fc3fe37b0e2c587146da795bc63a44ab7b"},
		{"shift 40", randomDeltas(rand.New(rand.NewSource(40)), 2000, 40), 40, 6534, "7d3a3b29e52121419729a847480c289c63734d0c8c83559d8dbed54c357709cf"},
		{"random lengths", randomDeltas(rand.New(rand.NewSource(7)), 4096, 0), 0, 20209, "3f4ddb31bf85548404dbfbaa8de7c23a48ec07f685bd05ef274da0f3508a20dd"},
	} {
		enc := roundTrip(t, Delta{}, c.src, 8)
		got := fmt.Sprintf("%x", sha256.Sum256(enc))
		if enc[0] != c.shift || len(enc) != c.size || got != c.sum {
			t.Errorf("%s: delta stream changed: shift %d, %d bytes, sha256 %s", c.name, enc[0], len(enc), got)
		}
	}
}

// TestDeltaMatchesReference: on random inputs with deltas of every
// varint length and every shift, Delta encodes the reference stream and
// decodes it, and damaged copies of it, the way the reference does.
func TestDeltaMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2013))
	for trial := 0; trial < 300; trial++ {
		src := randomDeltas(r, r.Intn(600), uint(r.Intn(64)))
		want := refDeltaEncode(src)
		enc, err := Delta{}.Encode(src, 8)
		if err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("trial %d: encode = %d bytes (%v), reference %d bytes", trial, len(enc), err, len(want))
		}
		for _, stream := range [][]byte{enc, enc[:r.Intn(len(enc)+1)], append(append([]byte{}, enc...), byte(r.Intn(256)))} {
			ref, refErr := refDeltaDecode(stream, len(src))
			got, err := Delta{}.Decode(stream, len(src), 8)
			if (err == nil) != (refErr == nil) || !bytes.Equal(got, ref) {
				t.Fatalf("trial %d: decode of %d bytes = %d bytes (%v), reference %d bytes (%v)",
					trial, len(stream), len(got), err, len(ref), refErr)
			}
		}
	}
}
