package sdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/meta"
)

func tempFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.sdf")
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := tempFile(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	data := compress.Float64Bytes([]float64{1, 2, 3, 4, 5, 6})
	if err := w.WriteDataset("iter0000/theta/rank0000", meta.Float64, []int{2, 3}, data, "none"); err != nil {
		t.Fatal(err)
	}
	w.SetAttrString("iter0000/theta/rank0000", "unit", "K")
	w.SetAttrInt("iter0000", "iteration", 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := r.Datasets()[0]
	if d.Path != "iter0000/theta/rank0000" || d.Type != meta.Float64 || len(d.Dims) != 2 || d.Dims[0] != 2 || d.Dims[1] != 3 {
		t.Fatalf("dataset info = %+v", d)
	}
	if d.Elems() != 6 {
		t.Fatalf("elems = %d", d.Elems())
	}
	got, err := r.ReadFloat64s("iter0000/theta/rank0000")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{1, 2, 3, 4, 5, 6} {
		if got[i] != v {
			t.Fatalf("data[%d] = %v", i, got[i])
		}
	}
	if u, ok := r.AttrString("iter0000/theta/rank0000", "unit"); !ok || u != "K" {
		t.Fatalf("unit attr = %q ok=%v", u, ok)
	}
	if it, ok := r.AttrInt("iter0000", "iteration"); !ok || it != 0 {
		t.Fatalf("iteration attr = %d ok=%v", it, ok)
	}
}

func TestGroupsRegisteredWithAncestors(t *testing.T) {
	path := tempFile(t)
	w, _ := Create(path)
	w.createGroup("a/b/c")
	data := make([]byte, 8)
	w.WriteDataset("x/y/ds", meta.Float64, []int{1}, data, "none")
	w.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := map[string]bool{"a": true, "a/b": true, "a/b/c": true, "x": true, "x/y": true}
	got := map[string]bool{}
	for _, g := range r.Groups() {
		got[g] = true
	}
	for g := range want {
		if !got[g] {
			t.Errorf("missing group %q (have %v)", g, r.Groups())
		}
	}
}

// TestAllCodecsRoundTripThroughFile: a dataset round-trips through a file
// on disk. "none" is the only codec SDF stores; the codecs themselves
// round-trip in internal/compress and inside storage's frames.
func TestAllCodecsRoundTripThroughFile(t *testing.T) {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 250 + 10*math.Sin(float64(i)/100)
	}
	data := compress.Float64Bytes(vals)
	path := tempFile(t)
	w, _ := Create(path)
	if err := w.WriteDataset("v", meta.Float64, []int{4096}, data, "none"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadDataset("v")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
}

func TestWriterValidation(t *testing.T) {
	w, _ := Create(tempFile(t))
	defer w.Close()
	data := make([]byte, 16)
	if err := w.WriteDataset("", meta.Float64, []int{2}, data, "none"); err == nil {
		t.Error("empty path accepted")
	}
	if err := w.WriteDataset("v", meta.Type("bad"), []int{2}, data, "none"); err == nil {
		t.Error("bad dtype accepted")
	}
	if err := w.WriteDataset("v", meta.Float64, []int{3}, data, "none"); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := w.WriteDataset("v", meta.Float64, []int{0}, nil, "none"); err == nil {
		t.Error("zero dim accepted")
	}
	if err := w.WriteDataset("v", meta.Float64, []int{2}, data, "gorilla"); err == nil {
		t.Error("codec other than none accepted")
	}
	if err := w.WriteDataset("v", meta.Float64, []int{2}, data, "none"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDataset("v", meta.Float64, []int{2}, data, "none"); err == nil {
		t.Error("duplicate path accepted")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := writeFile(path, []byte("this is not an SDF file at all......")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestOpenRejectsUnclosedFile(t *testing.T) {
	path := tempFile(t)
	w, _ := Create(path)
	w.WriteDataset("v", meta.Float64, []int{1}, make([]byte, 8), "none")
	// No Close: the trailer is missing.
	w.closer.Close()
	if _, err := Open(path); err == nil {
		t.Fatal("unclosed file accepted")
	}
}

// TestCorruptPayloadDetected: the "none" read path returns the buffer it
// read without decoding it, so the CRC is its only guard — a flipped
// payload byte must still fail the read.
func TestCorruptPayloadDetected(t *testing.T) {
	path := tempFile(t)
	w, _ := Create(path)
	w.WriteDataset("v", meta.Float64, []int{128}, make([]byte, 1024), "none")
	w.Close()
	raw, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(magic)+10] ^= 0xFF // flip a payload byte
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err) // index is intact
	}
	defer r.Close()
	if _, err := r.ReadDataset("v"); err == nil {
		t.Fatal("corrupt payload not detected")
	}
}

func TestDatasetsOrder(t *testing.T) {
	path := tempFile(t)
	w, _ := Create(path)
	for _, name := range []string{"c", "a", "b"} {
		w.WriteDataset(name, meta.Uint8, []int{4}, make([]byte, 4), "none")
	}
	w.Close()
	r, _ := Open(path)
	defer r.Close()
	ds := r.Datasets()
	if len(ds) != 3 || ds[0].Path != "c" || ds[1].Path != "a" || ds[2].Path != "b" {
		t.Fatalf("order = %+v", ds)
	}
}

func TestReadFloat64sTypeCheck(t *testing.T) {
	path := tempFile(t)
	w, _ := Create(path)
	w.WriteDataset("i", meta.Int32, []int{2}, make([]byte, 8), "none")
	w.Close()
	r, _ := Open(path)
	defer r.Close()
	if _, err := r.ReadFloat64s("i"); err == nil {
		t.Fatal("type mismatch not detected")
	}
	if _, err := r.ReadFloat64s("missing"); err == nil {
		t.Fatal("missing dataset not detected")
	}
}

// TestRoundTripProperty: arbitrary float64 datasets round-trip through an
// in-memory SDF file.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		if len(vals) == 0 {
			vals = []float64{0}
		}
		data := compress.Float64Bytes(vals)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteDataset("v", meta.Float64, []int{len(vals)}, data, "none"); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			return false
		}
		got, err := r.ReadDataset("v")
		return err == nil && bytes.Equal(got, data)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// fileBytes returns the bytes of an in-memory SDF file that write
// filled, or nil when writing or closing failed.
func fileBytes(write func(w *Writer) error) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := write(w); err != nil || w.Close() != nil {
		return nil
	}
	return buf.Bytes()
}

// TestWriteDatasetVecMatchesFlat: the file format does not depend on how
// a payload is segmented. For random segmentations, empty segments
// included, WriteDatasetVec writes the same bytes as WriteDataset of the
// concatenation, and the file reads back to the payload.
func TestWriteDatasetVecMatchesFlat(t *testing.T) {
	if err := quick.Check(func(vals []float64, cuts []uint8) bool {
		if len(vals) == 0 {
			vals = []float64{0}
		}
		data := compress.Float64Bytes(vals)
		var segs [][]byte
		rest := data
		for _, c := range cuts {
			n := min(int(c)%17, len(rest)) // 0 yields an empty segment
			segs, rest = append(segs, rest[:n]), rest[n:]
		}
		segs = append(segs, rest)
		dims := []int{len(vals)}
		flat := fileBytes(func(w *Writer) error { return w.WriteDataset("v", meta.Float64, dims, data, "none") })
		vec := fileBytes(func(w *Writer) error { return w.WriteDatasetVec("v", meta.Float64, dims, segs) })
		if flat == nil || !bytes.Equal(flat, vec) {
			return false
		}
		r, err := NewReader(bytes.NewReader(vec), int64(len(vec)))
		if err != nil {
			return false
		}
		got, err := r.ReadDataset("v")
		return err == nil && bytes.Equal(got, data)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// codecSlot is the codec string every dataset's index entry holds; the
// raw and encoded sizes follow it.
var codecSlot = []byte("\x04\x00\x00\x00none")

// nameCodec makes every dataset of an index name codec instead.
func nameCodec(idx []byte, codec string) []byte {
	slot := binary.LittleEndian.AppendUint32(nil, uint32(len(codec)))
	return bytes.ReplaceAll(idx, codecSlot, append(slot, codec...))
}

// editIndex returns file with its index rewritten by edit and sealed
// again: same offset, fresh trailer checksum.
func editIndex(file []byte, edit func(idx []byte) []byte) []byte {
	indexOff := binary.LittleEndian.Uint64(file[len(file)-20:])
	idx := edit(bytes.Clone(file[indexOff : len(file)-20]))
	out := append(file[:indexOff:indexOff], idx...)
	out = binary.LittleEndian.AppendUint64(out, indexOff)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	return append(out, trailerMagic...)
}

// TestNoneIndexMismatchRejected: the read path hands back the buffer it
// read, so it must not trust an index that disagrees with the payload —
// under a valid index checksum, a dataset whose size is off fails its
// CRC on read, and one that runs past the payload region fails on open.
// The index keeps a codec slot and an encoded size only so files stay
// byte-identical to older ones: naming a codec other than "none", or an
// encoded size unequal to the raw size, is unsupported input.
func TestNoneIndexMismatchRejected(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tamper   func(d *DatasetInfo)
		edit     func(idx []byte) []byte
		openFail bool
	}{
		{"short size", func(d *DatasetInfo) { d.Size-- }, nil, false},
		{"past payload", func(d *DatasetInfo) { d.Size = 1 << 40 }, nil, true},
		{"offset", func(d *DatasetInfo) { d.Offset = -1 }, nil, true},
		{"gorilla codec", nil, func(idx []byte) []byte {
			return nameCodec(idx, "gorilla")
		}, true},
		{"encoded size", nil, func(idx []byte) []byte {
			at := bytes.Index(idx, codecSlot) + len(codecSlot) + 8
			binary.LittleEndian.PutUint64(idx[at:], binary.LittleEndian.Uint64(idx[at:])-1)
			return idx
		}, true},
	} {
		file := fileBytes(func(w *Writer) error {
			err := w.WriteDataset("v", meta.Uint8, []int{16}, make([]byte, 16), "none")
			if tc.tamper != nil {
				tc.tamper(&w.datasets[0])
			}
			return err
		})
		if tc.edit != nil {
			file = editIndex(file, tc.edit)
		}
		r, err := NewReader(bytes.NewReader(file), int64(len(file)))
		if tc.openFail {
			if err == nil {
				t.Errorf("%s: tampered index opened", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, err := r.ReadDataset("v"); err == nil {
			t.Errorf("%s: read %d bytes from a dataset whose index disagrees with its payload", tc.name, len(got))
		}
	}
}

// FuzzSDFReader feeds arbitrary bytes to NewReader and then ReadDataset:
// a corrupt file must fail with an error, never a panic, and a dataset
// that reads back returns exactly Size bytes. The seeds are one valid
// file and its variants whose index names each other codec.
func FuzzSDFReader(f *testing.F) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = 250 + math.Sin(float64(i)/8)
	}
	data := compress.Float64Bytes(vals)
	file := fileBytes(func(w *Writer) error {
		w.SetAttrString("g", "unit", "K")
		w.SetAttrInt("", "size", int64(len(data)))
		if err := w.WriteDataset("g/v", meta.Float64, []int{8, 8}, data, "none"); err != nil {
			return err
		}
		return w.WriteDatasetVec("raw", meta.Uint8, []int{len(data)}, [][]byte{data[:5], nil, data[5:]})
	})
	for _, codec := range []string{"none", "gorilla", "flate", "rle"} {
		f.Add(editIndex(file, func(idx []byte) []byte { return nameCodec(idx, codec) }))
	}
	f.Add([]byte("SDFv1\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, file []byte) {
		r, err := NewReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			return
		}
		for _, d := range r.Datasets() {
			got, err := r.ReadDataset(d.Path)
			if err == nil && int64(len(got)) != d.Size {
				t.Fatalf("%s: read %d bytes of a %d-byte dataset", d.Path, len(got), d.Size)
			}
			if err == nil {
				checkRanges(t, r, d, got)
			}
		}
	})
}

// checkRanges holds ReadDatasetAt to ReadDataset on one dataset whose
// payload (whole, CRC-checked) is want: every in-bounds range returns
// exactly the matching slice, and a negative, past-the-end or
// overflowing range is ErrRange and writes nothing — not even inside
// dst, let alone the guard bytes around it.
func checkRanges(t *testing.T, r *Reader, d DatasetInfo, want []byte) {
	t.Helper()
	const guard = 8
	read := func(off, n int64) ([]byte, error) {
		buf := bytes.Repeat([]byte{0xa5}, int(n)+2*guard)
		dst := buf[guard : guard+n : guard+n]
		err := r.ReadDatasetAt(d.Path, dst, off)
		for i, b := range append(buf[:guard:guard], buf[guard+n:]...) {
			if b != 0xa5 {
				t.Fatalf("%s: range [%d, +%d) wrote guard byte %d", d.Path, off, n, i)
			}
		}
		return dst, err
	}
	size := d.Size
	for _, rg := range [][2]int64{
		{0, size}, {0, 0}, {size, 0}, {0, size / 2}, {size / 3, size - size/3},
		{size / 2, (size + 1) / 4}, {max(size-1, 0), min(size, 1)},
	} {
		got, err := read(rg[0], rg[1])
		if err != nil || !bytes.Equal(got, want[rg[0]:rg[0]+rg[1]]) {
			t.Fatalf("%s: range [%d, +%d) of %d bytes: err %v, exact %v",
				d.Path, rg[0], rg[1], size, err, bytes.Equal(got, want[rg[0]:rg[0]+rg[1]]))
		}
	}
	for _, rg := range [][2]int64{{-1, 1}, {-1, 0}, {size + 1, 0}, {0, size + 1}, {size, 1}, {1 << 62, 2}} {
		if rg[1] > size+1 {
			continue // not a buffer to allocate for a fuzzed size
		}
		got, err := read(rg[0], rg[1])
		if !errors.Is(err, ErrRange) {
			t.Fatalf("%s: range [%d, +%d) of %d bytes: want ErrRange, got %v", d.Path, rg[0], rg[1], size, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0xa5}, len(got))) {
			t.Fatalf("%s: rejected range [%d, +%d) wrote into dst", d.Path, rg[0], rg[1])
		}
	}
	// An offset near the top of int64: off + len(dst) overflows.
	if err := r.ReadDatasetAt(d.Path, make([]byte, 2), math.MaxInt64-1); !errors.Is(err, ErrRange) {
		t.Fatalf("%s: overflowing range: want ErrRange, got %v", d.Path, err)
	}
}

func BenchmarkWriteDatasetNone(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteDataset("v", meta.Uint8, []int{len(data)}, data, "none")
		w.Close()
	}
	b.SetBytes(1 << 20)
}

// BenchmarkWriteDatasetVecNone writes the same mebibyte as a batch
// object's segment list: 64 payloads of 16 KiB, each behind its own
// small header segment.
func BenchmarkWriteDatasetVecNone(b *testing.B) {
	data := make([]byte, 1<<20)
	header := make([]byte, 20)
	var segs [][]byte
	for off := 0; off < len(data); off += 16 << 10 {
		segs = append(segs, header, data[off:off+16<<10])
	}
	n := len(data) + 64*len(header)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteDatasetVec("v", meta.Uint8, []int{n}, segs)
		w.Close()
	}
	b.SetBytes(int64(n))
}

func BenchmarkReadDatasetNone(b *testing.B) {
	data := make([]byte, 1<<20)
	file := fileBytes(func(w *Writer) error { return w.WriteDataset("v", meta.Uint8, []int{len(data)}, data, "none") })
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadDataset("v"); err != nil {
			b.Fatal(err)
		}
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func readFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
