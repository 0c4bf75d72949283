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
	"slices"

	"repro/internal/buf"
)

// Codec is a lossless byte-level compressor. elemSize tells codecs that
// exploit element structure (Gorilla, Delta) how to segment src;
// byte-oriented codecs ignore it.
type Codec interface {
	// Name is the registry key stored in SDF dataset headers.
	Name() string
	// Encode compresses src. Element-structured codecs return an error
	// when len(src) is not a multiple of elemSize.
	Encode(src []byte, elemSize int) ([]byte, error)
	// DecodeInto decompresses enc into dst, whose length is the decoded
	// size; it writes nothing outside dst. It is the codec's one
	// decoder. Element-structured codecs return an error when len(dst)
	// is not a multiple of elemSize.
	DecodeInto(dst, enc []byte, elemSize int) error
	// Decode decompresses enc into a new buffer of dstSize bytes through
	// DecodeInto. The result may alias enc (None returns enc itself).
	Decode(enc []byte, dstSize, elemSize int) ([]byte, error)
}

// decode is every codec's Decode but None's: allocate dstSize bytes and
// decode into them.
func decode(c Codec, enc []byte, dstSize, elemSize int) ([]byte, error) {
	dst := make([]byte, dstSize)
	if err := c.DecodeInto(dst, enc, elemSize); err != nil {
		return nil, err
	}
	return dst, nil
}

// checkElems is an element codec's check of an n-byte buffer: elemSize
// must be one of the widths it supports and divide n, or the codec
// would drop the tail silently.
func checkElems(codec string, n, elemSize int, widths ...int) error {
	if !slices.Contains(widths, elemSize) || n%elemSize != 0 {
		return &elemError{codec, n, elemSize}
	}
	return nil
}

// elemError is an element codec's refusal of a buffer. The compression
// pipeline offers every part to its codec and expects refusals (a
// header part of odd length), so the message is formatted only when
// read and a refusal costs one allocation.
type elemError struct {
	codec       string
	n, elemSize int
}

func (e *elemError) Error() string {
	return fmt.Sprintf("compress: %s cannot take %d bytes as %d-byte elements", e.codec, e.n, e.elemSize)
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

// DecodeInto implements Codec.
func (None) DecodeInto(dst, enc []byte, _ int) error {
	if len(enc) != len(dst) {
		return fmt.Errorf("compress: none codec size mismatch: %d vs %d", len(enc), len(dst))
	}
	copy(dst, enc)
	return nil
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
	if err := checkElems("gorilla", len(src), elemSize, 4, 8); err != nil {
		return nil, err
	}
	return gorillaEncode(src, elemSize), nil
}

// DecodeInto implements Codec.
func (Gorilla) DecodeInto(dst, enc []byte, elemSize int) error {
	if err := checkElems("gorilla", len(dst), elemSize, 4, 8); err != nil {
		return err
	}
	return gorillaDecode(dst, enc, elemSize)
}

// Decode implements Codec.
func (g Gorilla) Decode(enc []byte, dstSize, elemSize int) ([]byte, error) {
	return decode(g, enc, dstSize, elemSize)
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

func gorillaDecode(out, enc []byte, width int) error {
	bitsPerWord := uint(width * 8)
	lzBits := uint(6)
	if width == 4 {
		lzBits = 5
	}
	n := len(out) / width
	r := bitReader{buf: enc}
	var prev uint64
	for i := 0; i < n; i++ {
		if i == 0 {
			v, ok := r.readBits(bitsPerWord)
			if !ok {
				return io.ErrUnexpectedEOF
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
				return io.ErrUnexpectedEOF
			}
			writeWord(out[i*width:], prev, width)
			continue
		}
		if !r.skip(1 + lzBits) {
			return io.ErrUnexpectedEOF
		}
		lead := head << 1 >> (64 - lzBits)
		sig := bitsPerWord - uint(lead)
		x, ok := r.readBits(sig)
		if !ok {
			return io.ErrUnexpectedEOF
		}
		prev ^= x
		writeWord(out[i*width:], prev, width)
	}
	return nil
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

// Encode implements Codec. One pass finds the shift, one more encodes
// into a pooled scratch buffer sized for the worst case (ten bytes per
// element). The result is an exact-size copy of the stream: the store
// holds the encoding until it has written it, and a worst-case buffer
// would hold up to ten times the bytes.
func (Delta) Encode(src []byte, elemSize int) ([]byte, error) {
	if err := checkElems("delta", len(src), elemSize, 8); err != nil {
		return nil, err
	}
	var or0, or1, or2, or3 uint64
	i := 0
	for ; i+32 <= len(src); i += 32 {
		or0 |= binary.LittleEndian.Uint64(src[i:])
		or1 |= binary.LittleEndian.Uint64(src[i+8:])
		or2 |= binary.LittleEndian.Uint64(src[i+16:])
		or3 |= binary.LittleEndian.Uint64(src[i+24:])
	}
	for ; i < len(src); i += 8 {
		or0 |= binary.LittleEndian.Uint64(src[i:])
	}
	shift := uint(bits.TrailingZeros64(or0|or1|or2|or3)) & 63 // all-zero input: 64 → 0
	scratch := buf.Get(1 + len(src)/8*binary.MaxVarintLen64)
	scratch[0] = byte(shift)
	pos := 1
	var prev int64
	for i := 0; i < len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(src[i:])) >> shift
		z := zigzag(v - prev)
		prev = v
		switch {
		case z < 1<<7:
			scratch[pos] = byte(z)
			pos++
		case z < 1<<14:
			scratch[pos] = byte(z) | 0x80
			scratch[pos+1] = byte(z >> 7)
			pos += 2
		default:
			pos += binary.PutUvarint(scratch[pos:], z)
		}
	}
	stream := scratch[:pos]
	out := make([]byte, len(stream))
	copy(out, stream)
	buf.Put(scratch)
	return out, nil
}

// DecodeInto implements Codec. One- and two-byte varints, all a rounded
// field's deltas, are read inline.
func (Delta) DecodeInto(dst, enc []byte, elemSize int) error {
	if err := checkElems("delta", len(dst), elemSize, 8); err != nil {
		return err
	}
	if len(enc) == 0 || enc[0] > 63 {
		return fmt.Errorf("compress: delta stream without a valid shift byte")
	}
	shift := uint(enc[0])
	var prev int64
	pos := 1
	for i := 0; i < len(dst); i += 8 {
		if pos >= len(enc) {
			return io.ErrUnexpectedEOF
		}
		z := uint64(enc[pos])
		switch {
		case z < 0x80:
			pos++
		case pos+1 < len(enc) && enc[pos+1] < 0x80:
			z = z&0x7f | uint64(enc[pos+1])<<7
			pos += 2
		default:
			var k int
			if z, k = binary.Uvarint(enc[pos:]); k <= 0 {
				return io.ErrUnexpectedEOF
			}
			pos += k
		}
		prev += int64(z>>1) ^ -int64(z&1)
		binary.LittleEndian.PutUint64(dst[i:], uint64(prev)<<shift)
	}
	if pos != len(enc) {
		return fmt.Errorf("compress: delta stream has %d trailing bytes", len(enc)-pos)
	}
	return nil
}

// Decode implements Codec.
func (d Delta) Decode(enc []byte, dstSize, elemSize int) ([]byte, error) {
	return decode(d, enc, dstSize, elemSize)
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

// DecodeInto implements Codec.
func (RLE) DecodeInto(dst, enc []byte, _ int) error {
	if len(enc)%2 != 0 {
		return fmt.Errorf("compress: truncated RLE stream")
	}
	n := 0
	for i := 0; i < len(enc); i += 2 {
		run := int(enc[i]) + 1
		if run > len(dst)-n {
			return fmt.Errorf("compress: RLE stream decodes past %d bytes", len(dst))
		}
		b := enc[i+1]
		for k := n; k < n+run; k++ {
			dst[k] = b
		}
		n += run
	}
	if n != len(dst) {
		return fmt.Errorf("compress: RLE decoded %d bytes, want %d", n, len(dst))
	}
	return nil
}

// Decode implements Codec.
func (r RLE) Decode(enc []byte, dstSize, elemSize int) ([]byte, error) {
	return decode(r, enc, dstSize, elemSize)
}

// Flate wraps the stdlib DEFLATE at the default level.
type Flate struct{}

// Name implements Codec.
func (Flate) Name() string { return "flate" }

// Encode implements Codec.
func (Flate) Encode(src []byte, _ int) ([]byte, error) {
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(src); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeInto implements Codec.
func (Flate) DecodeInto(dst, enc []byte, _ int) error {
	fr := flate.NewReader(bytes.NewReader(enc))
	defer fr.Close()
	if _, err := io.ReadFull(fr, dst); err != nil {
		return err
	}
	// The stream must end where the caller said the payload does.
	if n, err := fr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		return fmt.Errorf("compress: flate stream runs past %d bytes (%v)", len(dst), err)
	}
	return nil
}

// Decode implements Codec.
func (f Flate) Decode(enc []byte, dstSize, elemSize int) ([]byte, error) {
	return decode(f, enc, dstSize, elemSize)
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
