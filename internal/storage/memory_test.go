package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// memVersion is version v of object i: an 8-byte header holding v, then
// a body whose length and bytes both depend on (i, v), so a read that
// mixed two versions, or a version's bytes with another's length, shows.
func memVersion(i, v int) []byte {
	d := make([]byte, 256+(v%64)*16)
	binary.LittleEndian.PutUint64(d, uint64(v))
	for k := 8; k < len(d); k++ {
		d[k] = byte(i*37 + v*11 + k)
	}
	return d
}

// TestMemoryConcurrentReadWrite: Memory's readers copy outside its
// lock, so they race its writers. Goroutines Get, ReadRanges and List
// while others overwrite the same names with PutVec (reusing and then
// scribbling over their segment buffers) and Delete them. Every
// successful read must be byte-exact to one version stored under its
// name, and ObjectReadBytes must count exactly the bytes served.
func TestMemoryConcurrentReadWrite(t *testing.T) {
	const objects, writes, reads = 3, 400, 800
	m := NewMemory(nil, 1, 1e9)
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("obj%d", i)
	}
	check := func(i int, got []byte) error {
		if len(got) < 8 {
			return fmt.Errorf("%s: %d bytes", names[i], len(got))
		}
		want := memVersion(i, int(binary.LittleEndian.Uint64(got)))
		if !bytes.Equal(got, want[:min(len(got), len(want))]) {
			return fmt.Errorf("%s: read matches no stored version", names[i])
		}
		return nil
	}
	var served atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	run := func(fn func(n int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < reads; n++ {
				if err := fn(n); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seg [2][]byte
			for v := w; v < writes; v += 2 {
				d := memVersion(v%objects, v)
				cut := len(d) / 3
				seg[0] = append(seg[0][:0], d[:cut]...)
				seg[1] = append(seg[1][:0], d[cut:]...)
				if err := m.PutVec(names[v%objects], seg[:]); err != nil {
					errs <- err
					return
				}
				clear(seg[0])
				clear(seg[1])
			}
		}()
	}
	run(func(n int) error {
		if err := m.Delete(names[n%objects]); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		return nil
	})
	run(func(n int) error {
		got, err := m.Get(names[n%objects])
		if errors.Is(err, ErrNotFound) {
			return nil
		} else if err != nil {
			return err
		}
		served.Add(int64(len(got)))
		return check(n%objects, got)
	})
	run(func(n int) error {
		got := make([]byte, 256)
		err := m.ReadRanges(names[n%objects], []Range{{Off: 200, Dst: got[200:]}, {Off: 0, Dst: got[:200]}})
		if errors.Is(err, ErrNotFound) {
			return nil
		} else if err != nil {
			return err
		}
		served.Add(int64(len(got)))
		return check(n%objects, got)
	})
	run(func(int) error {
		got, err := m.List("obj")
		if err == nil && (!slices.IsSorted(got) || len(got) > objects) {
			err = fmt.Errorf("List gave %q", got)
		}
		return err
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := m.Accounting().ObjectReadBytes, served.Load(); got != want {
		t.Errorf("ObjectReadBytes %d, readers were served %d", got, want)
	}
}
