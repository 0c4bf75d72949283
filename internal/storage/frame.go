package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/compress"
)

// The compression frame is the self-describing envelope the pipeline
// wraps every compressed object in before it reaches a backend. A frame
// is a vector of parts, each encoded (or not) on its own:
//
//	offset 0  magic "DCF2" (4 bytes)
//	offset 4  codec-name length (1 byte)
//	offset 5  codec name (ASCII)
//	       +  raw object size, uint32 little-endian
//	       +  part count, uint32 little-endian
//	       +  part table, per part:
//	            raw size, uint32 little-endian
//	            encoded size, uint32 little-endian
//	            element size, 1 byte (0: the part is stored raw)
//	       +  the parts' payloads, back to back
//
// The decoded parts, concatenated, are the object. One codec serves the
// whole frame; a part it refuses or cannot shrink is stored raw in
// place, and a frame whose parts are all raw names the codec "none".
// Parts exist so each can be handed to the element codecs with its own
// element alignment: the scatter-gather write path makes every large
// block payload a part (see Compressing.PutVec), the flat Put writes a
// one-part frame. The header carries everything Decode needs, so a
// store can be read back by a process that knows nothing about how it
// was written, and objects written without compression (no magic) pass
// through untouched. Version-1 frames ("DCF1": one part, no table, and
// an older delta stream) are reported corrupt, not passed through.

// frameMagic marks the compression frame envelope: the family prefix
// IsFramed recognises, and the one version digit this code reads and
// writes.
const (
	frameFamily = "DCF"
	frameMagic  = frameFamily + "2"
)

// partEntryLen is the size of one part-table entry.
const partEntryLen = 9

// maxFrameExpansion bounds how much larger than its encoded payload a
// frame may claim its raw payload is. The most aggressive registered
// codec cannot legitimately exceed it (DEFLATE tops out near 1032:1,
// byte RLE at 128:1, Gorilla at one control bit per 64-bit word), and
// the bound keeps a corrupt header's raw-size field from driving a
// giant allocation before the codec ever sees the payload.
const maxFrameExpansion = 1040

// frameSlack lets tiny payloads round-trip: expansion bounds only bite
// past this many raw bytes.
const frameSlack = 4096

// maxFrameElemSize bounds the element width a part may declare (the
// writer only ever uses 1, 4 and 8).
const maxFrameElemSize = 64

// ErrNotFramed is returned when an object does not start with the
// compression-frame magic: it was stored without the compression
// pipeline. Callers should test with errors.Is and fall back to using
// the bytes as they are.
var ErrNotFramed = errors.New("storage: object not compression-framed")

// ErrCorruptFrame is returned for an object that carries the frame
// magic but whose header or payload cannot be decoded: truncated
// header fields, an implausible raw size, an unknown codec name (also
// wrapping compress.ErrUnknownCodec), or a payload the named codec
// rejects. Restore paths report it the same way they report missing
// objects: the object is known but not recoverable.
var ErrCorruptFrame = errors.New("storage: corrupt compression frame")

// FramePart describes one part of a framed object.
type FramePart struct {
	// RawSize and EncodedSize are the part's length before and after
	// encoding.
	RawSize     int
	EncodedSize int
	// ElemSize is the element width handed to the frame's codec for this
	// part (1 for byte-oriented codecs), or 0 for a part stored raw.
	ElemSize int
}

// FrameHeader describes a framed object without decoding its payload.
type FrameHeader struct {
	// Codec is the registered codec name the encoded parts use.
	Codec string
	// RawSize is the decoded object length in bytes.
	RawSize int
	// EncodedSize is the length of the parts' payloads in bytes
	// (excluding the header and part table).
	EncodedSize int
	// Parts lists the parts in object order.
	Parts []FramePart
}

// Ratio returns RawSize/EncodedSize, the paper's "600%" being 6.0.
func (h FrameHeader) Ratio() float64 {
	return compress.Ratio(h.RawSize, h.EncodedSize)
}

// IsFramed reports whether an object starts with the compression-frame
// magic of any version.
func IsFramed(obj []byte) bool {
	return len(obj) >= len(frameMagic) && string(obj[:len(frameFamily)]) == frameFamily
}

// frameWriter assembles one frame part by part. The payloads it is
// handed are aliased, not copied.
type frameWriter struct {
	table   []byte   // part-table entries so far
	payload [][]byte // the parts' payloads, in order
	rawLen  int
	encLen  int
	encoded bool // some part went through the codec
}

// add appends a part of rawLen bytes: payload is what the frame's codec
// made of it with element size elem, or the part's own segments with
// elem 0.
func (w *frameWriter) add(rawLen, elem int, payload ...[]byte) {
	encLen := SegsLen(payload)
	w.table = binary.LittleEndian.AppendUint32(w.table, uint32(rawLen))
	w.table = binary.LittleEndian.AppendUint32(w.table, uint32(encLen))
	w.table = append(w.table, byte(elem))
	w.payload = append(w.payload, payload...)
	w.rawLen += rawLen
	w.encLen += encLen
	w.encoded = w.encoded || elem != 0
}

// finish returns the frame as a segment list: header and part table in
// one leading segment, then the payloads. It is the one place the
// header layout is written. The caller has bounded the raw size and the
// codec name length.
func (w *frameWriter) finish(codec string) [][]byte {
	head := make([]byte, 0, len(frameMagic)+1+len(codec)+8+len(w.table))
	head = append(head, frameMagic...)
	head = append(head, byte(len(codec)))
	head = append(head, codec...)
	head = binary.LittleEndian.AppendUint32(head, uint32(w.rawLen))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(w.table)/partEntryLen))
	head = append(head, w.table...)
	return append([][]byte{head}, w.payload...)
}

// checkFrameSize rejects an object the header's 32-bit raw-size field
// cannot describe; a silent wrap would store an object that can never
// decode.
func checkFrameSize(rawLen int) error {
	if int64(rawLen) > math.MaxUint32 {
		return fmt.Errorf("storage: %d-byte payload exceeds the 4 GiB frame limit", rawLen)
	}
	return nil
}

// ParseFrameHeader splits a framed object into its header and the
// parts' payloads (back to back, in part order) without decoding. It
// returns ErrNotFramed for objects without the magic and
// ErrCorruptFrame for damaged headers — another frame version, a
// truncated part table, part sizes that do not add up to the header's
// raw size or to the bytes actually present; the codec name is
// validated against the registry, so garbage names surface as
// ErrCorruptFrame wrapping compress.ErrUnknownCodec.
func ParseFrameHeader(obj []byte) (FrameHeader, []byte, error) {
	corrupt := func(format string, args ...any) (FrameHeader, []byte, error) {
		return FrameHeader{}, nil, fmt.Errorf("%w: %s", ErrCorruptFrame, fmt.Sprintf(format, args...))
	}
	if !IsFramed(obj) {
		return FrameHeader{}, nil, fmt.Errorf("%w (%d bytes)", ErrNotFramed, len(obj))
	}
	if v := obj[len(frameFamily)]; v != frameMagic[len(frameFamily)] {
		return corrupt("frame version %q, this reader handles %s", v, frameMagic)
	}
	rest := obj[len(frameMagic):]
	if len(rest) < 1 {
		return corrupt("truncated before codec name")
	}
	nameLen := int(rest[0])
	rest = rest[1:]
	if len(rest) < nameLen+8 {
		return corrupt("truncated header")
	}
	h := FrameHeader{Codec: string(rest[:nameLen])}
	if _, err := compress.ByName(h.Codec); err != nil {
		return FrameHeader{}, nil, fmt.Errorf("%w: %w", ErrCorruptFrame, err)
	}
	rest = rest[nameLen:]
	h.RawSize = int(binary.LittleEndian.Uint32(rest))
	nParts := int(binary.LittleEndian.Uint32(rest[4:]))
	rest = rest[8:]
	if nParts > len(rest)/partEntryLen {
		return corrupt("truncated part table: %d parts in %d bytes", nParts, len(rest))
	}
	table, payload := rest[:nParts*partEntryLen], rest[nParts*partEntryLen:]
	h.EncodedSize = len(payload)
	h.Parts = make([]FramePart, nParts)
	var rawSum, encSum uint64
	for i := range h.Parts {
		e := table[i*partEntryLen:]
		p := FramePart{
			RawSize:     int(binary.LittleEndian.Uint32(e)),
			EncodedSize: int(binary.LittleEndian.Uint32(e[4:])),
			ElemSize:    int(e[8]),
		}
		switch {
		case p.ElemSize > maxFrameElemSize:
			return corrupt("part %d: element size %d", i, p.ElemSize)
		case p.ElemSize == 0 && p.EncodedSize != p.RawSize:
			return corrupt("part %d: raw part of %d bytes stored in %d", i, p.RawSize, p.EncodedSize)
		case p.ElemSize > 1 && p.RawSize%p.ElemSize != 0:
			return corrupt("part %d: raw size %d not a multiple of element size %d", i, p.RawSize, p.ElemSize)
		case p.RawSize > frameSlack && p.RawSize > maxFrameExpansion*p.EncodedSize:
			return corrupt("part %d: implausible raw size %d for %d encoded bytes", i, p.RawSize, p.EncodedSize)
		}
		rawSum += uint64(p.RawSize)
		encSum += uint64(p.EncodedSize)
		h.Parts[i] = p
	}
	if rawSum != uint64(h.RawSize) {
		return corrupt("parts hold %d raw bytes, header says %d", rawSum, h.RawSize)
	}
	if encSum != uint64(len(payload)) {
		return corrupt("parts claim %d encoded bytes, object holds %d", encSum, len(payload))
	}
	return h, payload, nil
}

// DecodeFrame parses and decodes a framed object back to its raw
// payload. The raw object is allocated once and every part is decoded,
// or copied when stored raw, straight into its place in it. Objects
// without the magic return ErrNotFramed; anything the header parser or
// codec rejects returns ErrCorruptFrame.
func DecodeFrame(obj []byte) ([]byte, FrameHeader, error) {
	h, payload, err := ParseFrameHeader(obj)
	if err != nil {
		return nil, FrameHeader{}, err
	}
	codec, _ := compress.ByName(h.Codec) // ParseFrameHeader validated the name
	raw := make([]byte, h.RawSize)
	dst := raw
	for i, p := range h.Parts {
		enc, part := payload[:p.EncodedSize], dst[:p.RawSize]
		payload, dst = payload[p.EncodedSize:], dst[p.RawSize:]
		if p.ElemSize == 0 {
			copy(part, enc)
			continue
		}
		if err := codec.DecodeInto(part, enc, p.ElemSize); err != nil {
			return nil, h, fmt.Errorf("%w: %s part %d: %v", ErrCorruptFrame, h.Codec, i, err)
		}
	}
	return raw, h, nil
}
