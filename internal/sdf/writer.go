// Package sdf implements SDF, a self-describing hierarchical scientific
// data format standing in for HDF5 in this reproduction: groups, typed
// n-dimensional datasets, string/number attributes, and CRC-verified
// reads. Datasets are stored raw: compression belongs to the layer above
// (storage.Compressing frames an object before it reaches an SDF file).
//
// Layout: a small magic header, then dataset payloads appended in write
// order, then a binary index (datasets, attributes, groups), then a fixed
// trailer holding the index offset and checksum — so files are written in
// one streaming pass and opened by reading the trailer first, like HDF5
// and Parquet do.
package sdf

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/meta"
)

var (
	magic        = []byte("SDFv1\x00\x00\x00")
	trailerMagic = []byte("SDFEND\x00\x00")
)

// DatasetInfo describes one stored dataset.
type DatasetInfo struct {
	Path   string
	Type   meta.Type
	Dims   []int
	Size   int64 // payload bytes
	Offset int64
	CRC    uint32
}

// storedCodec fills the index's codec slot. The slot, and an encoded
// size equal to Size, stay in the format so existing files remain valid
// and new ones are byte-identical to them; the reader rejects any other
// codec or size.
const storedCodec = "none"

// Elems returns the number of elements.
func (d DatasetInfo) Elems() int {
	n := 1
	for _, dim := range d.Dims {
		n *= dim
	}
	return n
}

// attr is one attribute value; only string and int64 are written.
type attr struct {
	Path, Key string
	Kind      byte // 's', 'i'
	Str       string
	Int       int64
}

// Writer streams an SDF file.
type Writer struct {
	w      io.Writer
	closer io.Closer
	off    int64

	datasets []DatasetInfo
	paths    map[string]bool
	attrs    []attr
	groups   map[string]bool
	closed   bool
	err      error
}

// Create creates an SDF file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := NewWriter(f)
	w.closer = f
	return w, nil
}

// NewWriter wraps an io.Writer; Close does not close the underlying
// writer unless the Writer was obtained from Create.
func NewWriter(out io.Writer) *Writer {
	w := &Writer{w: out, paths: map[string]bool{}, groups: map[string]bool{}}
	w.write(magic)
	return w
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	w.err = err
}

// createGroup registers a clean group path and its ancestors.
func (w *Writer) createGroup(path string) {
	for p := path; p != ""; p = parentPath(p) {
		w.groups[p] = true
	}
}

// WriteDataset appends a dataset. data must hold exactly
// product(dims) × dtype.Size() bytes. codecName is vestigial and must be
// "none"; it goes when the benchmark's call sites are brought up to date
// (ROADMAP item 16).
func (w *Writer) WriteDataset(path string, dtype meta.Type, dims []int, data []byte, codecName string) error {
	if codecName != storedCodec {
		return fmt.Errorf("sdf: dataset %q: codec %q unsupported (SDF stores raw datasets)", path, codecName)
	}
	return w.WriteDatasetVec(path, dtype, dims, [][]byte{data})
}

// WriteDatasetVec appends a dataset whose payload is the concatenation
// of segs, with the same file bytes WriteDataset writes for that
// concatenation. Each segment goes to the underlying writer as it is —
// the payload is never gathered or copied.
func (w *Writer) WriteDatasetVec(path string, dtype meta.Type, dims []int, segs [][]byte) error {
	if w.closed {
		return fmt.Errorf("sdf: writer closed")
	}
	path = cleanPath(path)
	if path == "" {
		return fmt.Errorf("sdf: empty dataset path")
	}
	if w.paths[path] {
		return fmt.Errorf("sdf: dataset %q already exists", path)
	}
	if !dtype.Valid() {
		return fmt.Errorf("sdf: invalid dtype %q", dtype)
	}
	elems := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("sdf: non-positive dimension in %v", dims)
		}
		elems *= d
	}
	raw := 0
	for _, s := range segs {
		raw += len(s)
	}
	if want := elems * dtype.Size(); raw != want {
		return fmt.Errorf("sdf: dataset %q: %d bytes for dims %v of %s (want %d)",
			path, raw, dims, dtype, want)
	}
	info := DatasetInfo{
		Path:   path,
		Type:   dtype,
		Dims:   append([]int(nil), dims...),
		Size:   int64(raw),
		Offset: w.off,
	}
	// crc32.Update chains to ChecksumIEEE of the concatenation, so a
	// segmented payload gets the same CRC as its gathered form.
	for _, s := range segs {
		info.CRC = crc32.Update(info.CRC, crc32.IEEETable, s)
		if len(s) > 0 {
			w.write(s)
		}
	}
	if w.err != nil {
		return w.err
	}
	w.datasets = append(w.datasets, info)
	w.paths[path] = true
	w.createGroup(parentPath(path))
	return nil
}

// SetAttrString attaches a string attribute to a path.
func (w *Writer) SetAttrString(path, key, v string) {
	w.attrs = append(w.attrs, attr{Path: cleanPath(path), Key: key, Kind: 's', Str: v})
}

// SetAttrInt attaches an integer attribute to a path.
func (w *Writer) SetAttrInt(path, key string, v int64) {
	w.attrs = append(w.attrs, attr{Path: cleanPath(path), Key: key, Kind: 'i', Int: v})
}

// Close writes the index and trailer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	indexOff := w.off
	idx := w.encodeIndex()
	w.write(idx)
	var tail [20]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(indexOff))
	binary.LittleEndian.PutUint32(tail[8:], crc32.ChecksumIEEE(idx))
	copy(tail[12:], trailerMagic)
	w.write(tail[:])
	err := w.err
	if w.closer != nil {
		if cerr := w.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (w *Writer) encodeIndex() []byte {
	var b builder
	b.u32(uint32(len(w.datasets)))
	for _, d := range w.datasets {
		b.str(d.Path)
		b.str(string(d.Type))
		b.u32(uint32(len(d.Dims)))
		for _, dim := range d.Dims {
			b.u64(uint64(dim))
		}
		b.str(storedCodec)
		b.u64(uint64(d.Size)) // raw size
		b.u64(uint64(d.Size)) // encoded size
		b.u64(uint64(d.Offset))
		b.u32(d.CRC)
	}
	b.u32(uint32(len(w.attrs)))
	for _, a := range w.attrs {
		b.str(a.Path)
		b.str(a.Key)
		b.buf = append(b.buf, a.Kind)
		switch a.Kind {
		case 's':
			b.str(a.Str)
		case 'i':
			b.u64(uint64(a.Int))
		}
	}
	groups := make([]string, 0, len(w.groups))
	for g := range w.groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	b.u32(uint32(len(groups)))
	for _, g := range groups {
		b.str(g)
	}
	return b.buf
}

type builder struct{ buf []byte }

func (b *builder) u32(v uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	b.buf = append(b.buf, t[:]...)
}

func (b *builder) u64(v uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	b.buf = append(b.buf, t[:]...)
}

func (b *builder) str(s string) {
	b.u32(uint32(len(s)))
	b.buf = append(b.buf, s...)
}

// cleanPath normalizes to slash-separated, no leading/trailing slash.
func cleanPath(p string) string {
	return strings.Trim(strings.ReplaceAll(p, "//", "/"), "/")
}

func parentPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return ""
	}
	return p[:i]
}
