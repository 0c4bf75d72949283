package sdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/compress"
	"repro/internal/meta"
)

// Reader opens and reads SDF files.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer

	datasets map[string]DatasetInfo
	order    []string
	attrs    map[[2]string]attr
	groups   []string
}

// Open opens the SDF file at path.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader parses an SDF file from any random-access source.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	head := make([]byte, len(magic))
	if _, err := src.ReadAt(head, 0); err != nil || !bytes.Equal(head, magic) {
		return nil, fmt.Errorf("sdf: not an SDF file")
	}
	if size < int64(len(magic))+20 {
		return nil, fmt.Errorf("sdf: truncated file")
	}
	var tail [20]byte
	if _, err := src.ReadAt(tail[:], size-20); err != nil {
		return nil, fmt.Errorf("sdf: reading trailer: %w", err)
	}
	if !bytes.Equal(tail[12:], trailerMagic) {
		return nil, fmt.Errorf("sdf: bad trailer magic (unclosed writer?)")
	}
	indexOff := int64(binary.LittleEndian.Uint64(tail[0:]))
	wantCRC := binary.LittleEndian.Uint32(tail[8:])
	if indexOff < int64(len(magic)) || indexOff > size-20 {
		return nil, fmt.Errorf("sdf: corrupt index offset %d", indexOff)
	}
	idx := make([]byte, size-20-indexOff)
	if _, err := src.ReadAt(idx, indexOff); err != nil {
		return nil, fmt.Errorf("sdf: reading index: %w", err)
	}
	if crc32.ChecksumIEEE(idx) != wantCRC {
		return nil, fmt.Errorf("sdf: index checksum mismatch")
	}
	r := &Reader{
		r:        src,
		datasets: map[string]DatasetInfo{},
		attrs:    map[[2]string]attr{},
	}
	if err := r.decodeIndex(idx, indexOff); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeIndex parses the index; every dataset must lie in the payload
// region, between the header and indexOff.
func (r *Reader) decodeIndex(buf []byte, indexOff int64) error {
	p := parser{buf: buf}
	nds := p.u32()
	for i := uint32(0); i < nds && p.err == nil; i++ {
		var d DatasetInfo
		d.Path = p.str()
		d.Type = meta.Type(p.str())
		ndims := p.u32()
		if p.err == nil && ndims > 64 {
			return fmt.Errorf("sdf: implausible rank %d", ndims)
		}
		d.Dims = make([]int, ndims)
		for j := range d.Dims {
			d.Dims[j] = int(p.u64())
		}
		codec := p.str()
		d.Size = int64(p.u64())
		encSize := int64(p.u64())
		d.Offset = int64(p.u64())
		d.CRC = p.u32()
		if p.err != nil {
			break
		}
		if codec != storedCodec || encSize != d.Size {
			return fmt.Errorf("sdf: dataset %q: unsupported codec %q (%d raw, %d stored bytes)",
				d.Path, codec, d.Size, encSize)
		}
		if d.Offset < int64(len(magic)) || d.Size < 0 || d.Size > indexOff-d.Offset {
			return fmt.Errorf("sdf: dataset %q lies outside the payload region", d.Path)
		}
		r.datasets[d.Path] = d
		r.order = append(r.order, d.Path)
	}
	nattrs := p.u32()
	for i := uint32(0); i < nattrs && p.err == nil; i++ {
		var a attr
		a.Path = p.str()
		a.Key = p.str()
		a.Kind = p.byte()
		switch a.Kind {
		case 's':
			a.Str = p.str()
		case 'i':
			a.Int = int64(p.u64())
		case 'f': // float attributes are no longer written; skip old ones
			p.u64()
		default:
			if p.err == nil {
				return fmt.Errorf("sdf: unknown attribute kind %q", a.Kind)
			}
		}
		r.attrs[[2]string{a.Path, a.Key}] = a
	}
	ngroups := p.u32()
	for i := uint32(0); i < ngroups && p.err == nil; i++ {
		r.groups = append(r.groups, p.str())
	}
	if p.err != nil {
		return fmt.Errorf("sdf: corrupt index: %w", p.err)
	}
	return nil
}

type parser struct {
	buf []byte
	pos int
	err error
}

func (p *parser) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if p.pos+n > len(p.buf) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	out := p.buf[p.pos : p.pos+n]
	p.pos += n
	return out
}

func (p *parser) u32() uint32 {
	b := p.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (p *parser) u64() uint64 {
	b := p.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (p *parser) byte() byte {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (p *parser) str() string {
	n := p.u32()
	if p.err == nil && int(n) > len(p.buf)-p.pos {
		p.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(p.take(int(n)))
}

// Datasets returns the dataset infos in write order.
func (r *Reader) Datasets() []DatasetInfo {
	out := make([]DatasetInfo, 0, len(r.order))
	for _, p := range r.order {
		out = append(out, r.datasets[p])
	}
	return out
}

// Groups returns the registered group paths (sorted).
func (r *Reader) Groups() []string { return append([]string(nil), r.groups...) }

// ReadDataset reads and CRC-checks a dataset's payload into a new
// buffer the caller owns.
func (r *Reader) ReadDataset(path string) ([]byte, error) {
	d, ok := r.datasets[cleanPath(path)]
	if !ok {
		return nil, fmt.Errorf("sdf: no dataset %q", path)
	}
	data := make([]byte, d.Size)
	if _, err := r.r.ReadAt(data, d.Offset); err != nil {
		return nil, fmt.Errorf("sdf: reading %q: %w", path, err)
	}
	if crc32.ChecksumIEEE(data) != d.CRC {
		return nil, fmt.Errorf("sdf: dataset %q checksum mismatch", path)
	}
	return data, nil
}

// ReadFloat64s reads a float64 dataset as a slice.
func (r *Reader) ReadFloat64s(path string) ([]float64, error) {
	d, ok := r.datasets[cleanPath(path)]
	if !ok {
		return nil, fmt.Errorf("sdf: no dataset %q", path)
	}
	if d.Type != meta.Float64 {
		return nil, fmt.Errorf("sdf: dataset %q is %s, not float64", path, d.Type)
	}
	raw, err := r.ReadDataset(path)
	if err != nil {
		return nil, err
	}
	return compress.BytesFloat64(raw), nil
}

// AttrString returns a string attribute.
func (r *Reader) AttrString(path, key string) (string, bool) {
	a, ok := r.attrs[[2]string{cleanPath(path), key}]
	if !ok || a.Kind != 's' {
		return "", false
	}
	return a.Str, true
}

// AttrInt returns an integer attribute.
func (r *Reader) AttrInt(path, key string) (int64, bool) {
	a, ok := r.attrs[[2]string{cleanPath(path), key}]
	if !ok || a.Kind != 'i' {
		return 0, false
	}
	return a.Int, true
}

// Close releases the underlying file (if opened via Open).
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}
