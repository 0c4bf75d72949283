package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Codec is a lossless byte-level compressor. elemSize tells codecs that
// exploit element structure (Gorilla) how to segment src; byte-oriented
// codecs ignore it.
type Codec interface {
	// Name is the registry key stored in SDF dataset headers.
	Name() string
	// Encode compresses src (len(src) must be a multiple of elemSize for
	// element-structured codecs).
	Encode(src []byte, elemSize int) ([]byte, error)
	// Decode decompresses enc; dstSize is the expected decoded length.
	// The result may alias enc (None returns enc itself).
	Decode(enc []byte, dstSize, elemSize int) ([]byte, error)
}

// ErrUnknownCodec is returned by ByName for a name outside the
// registry. Consumers that parse codec names out of stored artifacts
// (the storage frame header, SDF dataset headers) test with errors.Is,
// so a corrupt or foreign codec name is reported the same way
// everywhere.
var ErrUnknownCodec = errors.New("compress: unknown codec")

// Names lists the registered codec names, in registry order ("" is an
// alias for "none" and is not listed).
func Names() []string {
	return []string{"none", "gorilla", "delta", "rle", "flate"}
}

// ByName returns the registered codec with the given name. Unknown
// names return an error wrapping ErrUnknownCodec.
func ByName(name string) (Codec, error) {
	switch name {
	case "none", "":
		return None{}, nil
	case "gorilla":
		return Gorilla{}, nil
	case "delta":
		return Delta{}, nil
	case "rle":
		return RLE{}, nil
	case "flate":
		return Flate{}, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownCodec, name)
}

// Ratio returns rawLen/encLen, the paper's "600%" being 6.0.
func Ratio(rawLen, encLen int) float64 {
	if encLen == 0 {
		return 0
	}
	return float64(rawLen) / float64(encLen)
}

// None is the identity codec.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Encode implements Codec.
func (None) Encode(src []byte, _ int) ([]byte, error) {
	return append([]byte(nil), src...), nil
}

// Decode implements Codec. It returns enc itself, without a copy.
func (None) Decode(enc []byte, dstSize, _ int) ([]byte, error) {
	if len(enc) != dstSize {
		return nil, fmt.Errorf("compress: none codec size mismatch: %d vs %d", len(enc), dstSize)
	}
	return enc, nil
}

// Gorilla is an XOR-based float codec: each value is XORed with its
// predecessor; the result is encoded as (control bits, leading-zero
// count, significant bits). Smooth fields XOR to mostly-zero words.
type Gorilla struct{}

// Name implements Codec.
func (Gorilla) Name() string { return "gorilla" }

// Encode implements Codec.
func (Gorilla) Encode(src []byte, elemSize int) ([]byte, error) {
	switch elemSize {
	case 8:
		return gorillaEncode(src, 8), nil
	case 4:
		return gorillaEncode(src, 4), nil
	default:
		return nil, fmt.Errorf("compress: gorilla supports 4- or 8-byte elements, got %d", elemSize)
	}
}

// Decode implements Codec.
func (Gorilla) Decode(enc []byte, dstSize, elemSize int) ([]byte, error) {
	if elemSize != 4 && elemSize != 8 {
		return nil, fmt.Errorf("compress: gorilla supports 4- or 8-byte elements, got %d", elemSize)
	}
	return gorillaDecode(enc, dstSize, elemSize)
}

func gorillaEncode(src []byte, width int) []byte {
	bitsPerWord := uint(width * 8)
	lzBits := uint(6) // enough for 0..63
	if width == 4 {
		lzBits = 5
	}
	n := len(src) / width
	// Half the input holds any field worth encoding without regrowth.
	w := bitWriter{buf: make([]byte, 0, len(src)/2+8)}
	var prev uint64
	for i := 0; i < n; i++ {
		v := readWord(src[i*width:], width)
		if i == 0 {
			w.writeBits(v, bitsPerWord)
			prev = v
			continue
		}
		x := v ^ prev
		prev = v
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(x)) - (64 - bitsPerWord)
		if lead >= bitsPerWord {
			lead = bitsPerWord - 1
		}
		// Control bit 1 and the leading-zero count go out together.
		w.writeBits(1<<lzBits|uint64(lead), lzBits+1)
		w.writeBits(x, bitsPerWord-lead)
	}
	return w.finish()
}

func gorillaDecode(enc []byte, dstSize, width int) ([]byte, error) {
	bitsPerWord := uint(width * 8)
	lzBits := uint(6)
	if width == 4 {
		lzBits = 5
	}
	n := dstSize / width
	out := make([]byte, dstSize)
	r := bitReader{buf: enc}
	var prev uint64
	for i := 0; i < n; i++ {
		if i == 0 {
			v, ok := r.readBits(bitsPerWord)
			if !ok {
				return nil, io.ErrUnexpectedEOF
			}
			prev = v
			writeWord(out[0:], v, width)
			continue
		}
		// One look decides the control bit and, behind a set one, the
		// leading-zero count.
		head := r.peek()
		if head>>63 == 0 {
			if !r.skip(1) {
				return nil, io.ErrUnexpectedEOF
			}
			writeWord(out[i*width:], prev, width)
			continue
		}
		if !r.skip(1 + lzBits) {
			return nil, io.ErrUnexpectedEOF
		}
		lead := head << 1 >> (64 - lzBits)
		sig := bitsPerWord - uint(lead)
		x, ok := r.readBits(sig)
		if !ok {
			return nil, io.ErrUnexpectedEOF
		}
		prev ^= x
		writeWord(out[i*width:], prev, width)
	}
	return out, nil
}

func readWord(b []byte, width int) uint64 {
	if width == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return uint64(binary.LittleEndian.Uint32(b))
}

func writeWord(b []byte, v uint64, width int) {
	if width == 8 {
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	binary.LittleEndian.PutUint32(b, uint32(v))
}

// Delta encodes 8-byte integers as zig-zag deltas in varint form, after
// shifting out the trailing zero bits every element shares: one leading
// byte holds the shift, the deltas of the (arithmetically) shifted
// values follow. A float64 field kept to a physical resolution carries
// 17–18 significant bits above 34 or more zero ones, so its deltas cost
// one or two bytes instead of six or seven; integer data has shift 0
// and pays the one byte.
type Delta struct{}

// Name implements Codec.
func (Delta) Name() string { return "delta" }

// zigzag maps a signed delta to the unsigned value its varint encodes.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// Encode implements Codec.
func (Delta) Encode(src []byte, elemSize int) ([]byte, error) {
	if elemSize != 8 {
		return nil, fmt.Errorf("compress: delta supports 8-byte integers, got %d", elemSize)
	}
	src = src[:len(src)&^7]
	var or uint64
	for i := 0; i < len(src); i += 8 {
		or |= binary.LittleEndian.Uint64(src[i:])
	}
	shift := uint(bits.TrailingZeros64(or)) & 63 // all-zero input: 64 → 0
	// Size the output exactly: the encoding is held until the store has
	// written it, and an append-grown buffer would hold twice the bytes.
	size := 1
	var prev int64
	for i := 0; i < len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(src[i:])) >> shift
		size += (bits.Len64(zigzag(v-prev)|1) + 6) / 7
		prev = v
	}
	out := make([]byte, size)
	out[0] = byte(shift)
	pos := 1
	prev = 0
	for i := 0; i < len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(src[i:])) >> shift
		z := zigzag(v - prev)
		prev = v
		if z < 0x80 {
			out[pos] = byte(z)
			pos++
			continue
		}
		pos += binary.PutUvarint(out[pos:], z)
	}
	return out, nil
}

// Decode implements Codec.
func (Delta) Decode(enc []byte, dstSize, elemSize int) ([]byte, error) {
	if elemSize != 8 {
		return nil, fmt.Errorf("compress: delta supports 8-byte integers, got %d", elemSize)
	}
	if len(enc) == 0 || enc[0] > 63 {
		return nil, fmt.Errorf("compress: delta stream without a valid shift byte")
	}
	shift := uint(enc[0])
	out := make([]byte, dstSize)
	var prev int64
	pos := 1
	for i := 0; i+8 <= dstSize; i += 8 {
		if pos >= len(enc) {
			return nil, io.ErrUnexpectedEOF
		}
		z := uint64(enc[pos])
		if z < 0x80 {
			pos++
		} else {
			var k int
			if z, k = binary.Uvarint(enc[pos:]); k <= 0 {
				return nil, io.ErrUnexpectedEOF
			}
			pos += k
		}
		prev += int64(z>>1) ^ -int64(z&1)
		binary.LittleEndian.PutUint64(out[i:], uint64(prev)<<shift)
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("compress: delta stream has %d trailing bytes", len(enc)-pos)
	}
	return out, nil
}

// RLE is byte-level run-length encoding: (count-1, value) pairs with runs
// up to 256.
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// Encode implements Codec.
func (RLE) Encode(src []byte, _ int) ([]byte, error) {
	out := make([]byte, 0, len(src)/8+16)
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[i] && j-i < 256 {
			j++
		}
		out = append(out, byte(j-i-1), src[i])
		i = j
	}
	return out, nil
}

// Decode implements Codec.
func (RLE) Decode(enc []byte, dstSize, _ int) ([]byte, error) {
	if len(enc)%2 != 0 {
		return nil, fmt.Errorf("compress: truncated RLE stream")
	}
	out := make([]byte, 0, dstSize)
	for i := 0; i < len(enc) && len(out) <= dstSize; i += 2 {
		run := int(enc[i]) + 1
		for k := 0; k < run; k++ {
			out = append(out, enc[i+1])
		}
	}
	if len(out) != dstSize {
		return nil, fmt.Errorf("compress: RLE decoded %d bytes, want %d", len(out), dstSize)
	}
	return out, nil
}

// Flate wraps the stdlib DEFLATE at the default level.
type Flate struct{}

// Name implements Codec.
func (Flate) Name() string { return "flate" }

// Encode implements Codec.
func (Flate) Encode(src []byte, _ int) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(src); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (Flate) Decode(enc []byte, dstSize, _ int) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(enc))
	defer fr.Close()
	out := make([]byte, dstSize)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, err
	}
	// The stream must end where the caller said the payload does.
	if n, err := fr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("compress: flate stream runs past %d bytes (%v)", dstSize, err)
	}
	return out, nil
}

// Float64Bytes reinterprets a float64 slice as little-endian bytes
// (helper for codec callers and tests).
func Float64Bytes(xs []float64) []byte {
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// BytesFloat64 is the inverse of Float64Bytes.
func BytesFloat64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
