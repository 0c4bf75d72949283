package storage

import (
	"bytes"
	"errors"
	"testing"
)

// TestReadRangesMatchGet: on every store — the two bases and
// Compressing over an unframed and a framed object — a ranged read returns exactly the matching slices of Get; a range
// outside the object is ErrOutOfRange, a missing object ErrNotFound.
// The bases count only the ranges' bytes as read.
func TestReadRangesMatchGet(t *testing.T) {
	data := smoothFloats(1250)
	n := int64(len(data))
	for _, kind := range []string{"memory", "sdf", "compressing/unframed", "compressing/framed"} {
		t.Run(kind, func(t *testing.T) {
			base := newStore(t, "memory")
			if kind == "sdf" {
				base = newStore(t, "sdf")
			}
			var r, w Backend = base, base
			switch kind {
			case "compressing/unframed":
				r = NewCompressing(base, CompressionOptions{Codec: "delta"})
			case "compressing/framed":
				c := NewCompressing(base, CompressionOptions{Codec: "delta"})
				r, w = c, c
			}
			for name, obj := range map[string][]byte{"obj": data, "empty": nil} {
				if err := w.Put(name, obj); err != nil {
					t.Fatal(err)
				}
			}
			if stored, _ := base.Get("obj"); IsFramed(stored) != (kind == "compressing/framed") {
				t.Fatalf("stored framed = %v", IsFramed(stored))
			}
			spans := [][2]int64{{0, n}, {0, 0}, {n, 0}, {17, 100}, {n - 1, 1}, {n / 2, n / 3}}
			rs := make([]Range, len(spans))
			for i, s := range spans {
				rs[i] = Range{Off: s[0], Dst: make([]byte, s[1])}
			}
			read0 := base.Accounting().ObjectReadBytes
			if err := r.ReadRanges("obj", rs); err != nil {
				t.Fatal(err)
			}
			for i, s := range spans {
				if !bytes.Equal(rs[i].Dst, data[s[0]:s[0]+s[1]]) {
					t.Fatalf("range [%d, +%d) differs from Get's bytes", s[0], s[1])
				}
			}
			if read := base.Accounting().ObjectReadBytes - read0; (kind == "memory" || kind == "sdf") && read != rangesLen(rs) {
				t.Fatalf("%d bytes counted as read, the ranges hold %d", read, rangesLen(rs))
			}
			for _, s := range [][2]int64{{-1, 1}, {n, 1}, {0, n + 1}, {n + 1, 0}} {
				err := r.ReadRanges("obj", []Range{{Off: s[0], Dst: make([]byte, s[1])}})
				if !errors.Is(err, ErrOutOfRange) {
					t.Fatalf("range [%d, +%d): want ErrOutOfRange, got %v", s[0], s[1], err)
				}
			}
			if err := r.ReadRanges("empty", []Range{{Dst: []byte{}}}); err != nil {
				t.Fatalf("empty range of an empty object: %v", err)
			}
			if err := r.ReadRanges("empty", []Range{{Dst: make([]byte, 1)}}); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("byte of an empty object: want ErrOutOfRange, got %v", err)
			}
			if err := r.ReadRanges("missing", []Range{{Dst: make([]byte, 1)}}); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing object: want ErrNotFound, got %v", err)
			}
		})
	}
}
