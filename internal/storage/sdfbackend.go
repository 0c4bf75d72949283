package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/des"
	"repro/internal/meta"
	"repro/internal/sdf"
)

// SDF is a local-filesystem backend: the same deterministic cost model
// as Memory for the simulated face, and real SDF files (internal/sdf)
// for objects — every Put lands as <dir>/<name>.sdf holding the object
// bytes plus size/backend attributes, so small runs leave inspectable
// artifacts that sdfdump can open.
type SDF struct {
	*simModel
	dir string

	omu     sync.Mutex
	objSize map[string]int64  // object name → stored size (overwrites replace)
	owner   map[string]string // flattened file name → object name (collision guard)
	objByte int64
	objRead int64
}

// NewSDF builds an SDF backend storing objects under dir (created if
// missing). eng may be nil when only the object face is used. The
// simulated face is priced below the memory backend (local disks are
// slower than the modeled OST array).
func NewSDF(eng *des.Engine, targets int, bandwidth float64, dir string) (*SDF, error) {
	if dir == "" {
		return nil, fmt.Errorf("storage: sdf backend needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := newSimModel(eng, targets, bandwidth*0.8)
	m.overhead = 0.08 // local fs: object creation costs more than RAM
	return &SDF{
		simModel: m,
		dir:      dir,
		objSize:  map[string]int64{},
		owner:    map[string]string{},
	}, nil
}

// Dir returns the artifact directory.
func (b *SDF) Dir() string { return b.dir }

// Name implements Backend.
func (b *SDF) Name() string { return "sdf" }

// Put implements ObjectStore: the object becomes one SDF file.
func (b *SDF) Put(name string, data []byte) error {
	return b.PutVec(name, [][]byte{data})
}

// PutVec implements ObjectStore: the segments are written to the file one
// after another, never gathered, so the file write is the only copy.
// Overwriting an existing name replaces the object (accounted once,
// like Memory.Put); two distinct names that flatten to the same file
// are rejected instead of silently clobbering each other.
func (b *SDF) PutVec(name string, segs [][]byte) error {
	if name == "" {
		return fmt.Errorf("storage: empty object name")
	}
	path := b.objectPath(name)
	b.omu.Lock()
	if prev, taken := b.owner[path]; taken && prev != name {
		b.omu.Unlock()
		return fmt.Errorf("storage: object %q collides with %q (both flatten to %s)",
			name, prev, path)
	}
	b.owner[path] = name
	b.omu.Unlock()
	w, err := sdf.Create(path)
	if err != nil {
		return err
	}
	size := SegsLen(segs)
	if size > 0 {
		if err := w.WriteDatasetVec("data", meta.Uint8, []int{size}, segs); err != nil {
			w.Close()
			return err
		}
	}
	w.SetAttrInt("", "size", int64(size))
	w.SetAttrString("", "backend", b.Name())
	// The unflattened name travels inside the file, so Get and List can
	// recover it in a fresh process (and Get can reject a name that
	// merely flattens to the same file).
	w.SetAttrString("", "name", name)
	if err := w.Close(); err != nil {
		return err
	}
	b.omu.Lock()
	if old, ok := b.objSize[name]; ok {
		b.objByte -= old
	}
	b.objSize[name] = int64(size)
	b.objByte += int64(size)
	b.omu.Unlock()
	return nil
}

// Get implements ObjectReader: the object is read back from its SDF
// file, whose CRC checks the whole payload.
func (b *SDF) Get(name string) ([]byte, error) {
	r, err := b.open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var data []byte
	if n, ok := r.AttrInt("", "size"); !ok || n > 0 {
		data, err = r.ReadDataset("data")
		if err != nil {
			return nil, fmt.Errorf("storage: object %q: %w", name, err)
		}
	}
	b.countRead(int64(len(data)))
	return data, nil
}

// ReadRanges implements Backend: one open of the object's SDF file,
// then one positioned read per range straight into its Dst. The file's
// CRC covers the whole payload and is not checked here; the caller
// verifies what it reads (the chunk store hashes every chunk).
func (b *SDF) ReadRanges(name string, rs []Range) error {
	r, err := b.open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	if n, ok := r.AttrInt("", "size"); ok && n <= 0 {
		return CopyRanges(name, nil, rs) // an empty object has no dataset
	}
	for _, rg := range rs {
		if err := r.ReadDatasetAt("data", rg.Dst, rg.Off); err != nil {
			if errors.Is(err, sdf.ErrRange) {
				return fmt.Errorf("%w: object %q: %v", ErrOutOfRange, name, err)
			}
			return fmt.Errorf("storage: object %q: %w", name, err)
		}
	}
	b.countRead(rangesLen(rs))
	return nil
}

// open opens the SDF file of a stored object for reading. The name is
// hardened the same way Put's collision guard is: a request whose name
// merely flattens to an existing file — the file belongs to a different
// unflattened name — is rejected as a collision instead of served,
// whether the owner is known from this process's Puts or only from the
// name attribute inside the file.
func (b *SDF) open(name string) (*sdf.Reader, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty object name")
	}
	path := b.objectPath(name)
	b.omu.Lock()
	if prev, taken := b.owner[path]; taken && prev != name {
		b.omu.Unlock()
		return nil, fmt.Errorf("storage: object %q collides with %q (both flatten to %s)",
			name, prev, path)
	}
	b.omu.Unlock()
	r, err := sdf.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, err
	}
	if stored, ok := r.AttrString("", "name"); ok && stored != name {
		r.Close()
		return nil, fmt.Errorf("storage: object %q collides with %q (both flatten to %s)",
			name, stored, path)
	}
	return r, nil
}

// countRead adds n object bytes served back to the ledger.
func (b *SDF) countRead(n int64) {
	b.omu.Lock()
	b.objRead += n
	b.omu.Unlock()
}

// Delete implements Backend: the object's SDF file is removed.
// The collision guard applies like Get's — a name that merely flattens
// to another object's file must not delete that object.
func (b *SDF) Delete(name string) error {
	if name == "" {
		return fmt.Errorf("storage: empty object name")
	}
	path := b.objectPath(name)
	b.omu.Lock()
	defer b.omu.Unlock()
	if prev, taken := b.owner[path]; taken && prev != name {
		return fmt.Errorf("storage: object %q collides with %q (both flatten to %s)",
			name, prev, path)
	}
	if _, known := b.objSize[name]; !known {
		// Not stored by this process: the file may still exist from an
		// earlier run — honor the delete if its name attribute matches.
		if r, err := sdf.Open(path); err == nil {
			stored, ok := r.AttrString("", "name")
			r.Close()
			if ok && stored != name {
				return fmt.Errorf("storage: object %q collides with %q (both flatten to %s)",
					name, stored, path)
			}
		}
	}
	if err := os.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return err
	}
	if old, ok := b.objSize[name]; ok {
		b.objByte -= old
		delete(b.objSize, name)
	}
	delete(b.owner, path)
	return nil
}

// List implements ObjectReader: the directory is scanned and each
// file's unflattened name recovered from its name attribute (falling
// back to the file name for objects written by other tools), so a
// fresh process can list a store left by an earlier run.
func (b *SDF) List(prefix string) ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		flat, ok := strings.CutSuffix(e.Name(), ".sdf")
		if !ok || e.IsDir() {
			continue
		}
		name := flat
		// Flattening only rewrites path separators to "_": a flat name
		// without one is provably the original, so only ambiguous files
		// need opening for their name attribute.
		if strings.Contains(flat, "_") {
			if r, err := sdf.Open(filepath.Join(b.dir, e.Name())); err == nil {
				if stored, ok := r.AttrString("", "name"); ok {
					name = stored
				}
				r.Close()
			}
		}
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (b *SDF) objectPath(name string) string {
	// Object names may carry path separators of either convention;
	// flatten both so every object is one file directly under dir.
	// Put rejects distinct names that flatten to the same file.
	safe := strings.ReplaceAll(name, "/", "_")
	safe = strings.ReplaceAll(safe, `\`, "_")
	return filepath.Join(b.dir, safe+".sdf")
}

// Accounting implements Backend.
func (b *SDF) Accounting() Accounting {
	acc := b.simModel.Accounting()
	b.omu.Lock()
	acc.Objects = len(b.objSize)
	acc.ObjectBytes = b.objByte
	acc.ObjectReadBytes = b.objRead
	b.omu.Unlock()
	return acc
}
