package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/des"
	"repro/internal/pfs"
	"repro/internal/rng"
	"repro/internal/topology"
)

// PFS adapts the discrete-event Lustre model to the Backend interface.
// The simulated face delegates to pfs.FS; the real face has no storage
// behind it — a pure model — so Put only accounts the object and Get
// charges the read before reporting ErrNoPayload. Names are retained,
// so List works and Get can tell "never stored" from "not retained".
type PFS struct {
	eng *des.Engine
	fs  *pfs.FS

	mu      sync.Mutex
	objSize map[string]int64
	objByte int64
	objRead int64
}

// NewPFS wraps a fresh pfs.FS over the given parameters.
func NewPFS(eng *des.Engine, params topology.PFSParams, r *rng.Stream) *PFS {
	return &PFS{eng: eng, fs: pfs.New(eng, params, r), objSize: map[string]int64{}}
}

// FS exposes the underlying model (diagnostics, pfs-specific tests).
func (b *PFS) FS() *pfs.FS { return b.fs }

// SetBandwidthFactor forwards a mid-run platform shift — an absolute
// multiplier on nominal OST bandwidth — to the file-system model; the
// workload scenarios use it for their PFS bandwidth steps.
func (b *PFS) SetBandwidthFactor(factor float64) { b.fs.SetBandwidthFactor(factor) }

// Name implements Backend.
func (b *PFS) Name() string { return string(KindPFS) }

// Engine implements CostModel.
func (b *PFS) Engine() *des.Engine { return b.eng }

// Targets implements Backend.
func (b *PFS) Targets() int { return b.fs.OSTCount() }

// BeginPhase implements Backend: fresh per-OST congestion draws.
func (b *PFS) BeginPhase() { b.fs.BeginPhase() }

// Create implements Backend.
func (b *PFS) Create(p *des.Proc) { b.fs.Create(p) }

// Open implements Backend.
func (b *PFS) Open(p *des.Proc) { b.fs.Open(p) }

// Close implements Backend.
func (b *PFS) Close(p *des.Proc) { b.fs.Close(p) }

// Write implements Backend.
func (b *PFS) Write(p *des.Proc, target int, bytes float64, pat Pattern) {
	b.fs.Write(p, target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// WriteChunk implements Backend.
func (b *PFS) WriteChunk(p *des.Proc, target int, bytes float64, pat Pattern) {
	b.fs.WriteChunk(p, target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// WriteAsync implements Backend.
func (b *PFS) WriteAsync(target int, bytes float64, pat Pattern) *des.Future {
	return b.fs.WriteAsync(target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// Read implements Backend.
func (b *PFS) Read(p *des.Proc, target int, bytes float64, pat Pattern) {
	b.fs.Read(p, target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// ReadAsync implements Backend.
func (b *PFS) ReadAsync(target int, bytes float64, pat Pattern) *des.Future {
	return b.fs.ReadAsync(target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// PlaceFile implements Backend (Lustre's randomized allocator).
func (b *PFS) PlaceFile(stripes int, r *rng.Stream) []int {
	return b.fs.PlaceFile(stripes, r)
}

// Put implements ObjectStore. The DES model stores no payloads, so the
// object's name and size are accounted and the bytes dropped.
func (b *PFS) Put(name string, data []byte) error {
	return b.putSized(name, int64(len(data)))
}

// PutVec implements VecStore: the pure cost model never touches the
// payload, so a scatter-gather write is accounted from the segment
// lengths alone — the fully zero-copy case.
func (b *PFS) PutVec(name string, segs [][]byte) error {
	return b.putSized(name, int64(SegsLen(segs)))
}

func (b *PFS) putSized(name string, size int64) error {
	if name == "" {
		return fmt.Errorf("storage: empty object name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.objSize[name]; ok {
		b.objByte -= old
	}
	b.objSize[name] = size
	b.objByte += size
	return nil
}

// Delete implements ObjectDeleter: the accounting entry is dropped (no
// payload was ever retained).
func (b *PFS) Delete(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	size, ok := b.objSize[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	b.objByte -= size
	delete(b.objSize, name)
	return nil
}

// Get implements ObjectReader. The read is charged to the ledger at the
// object's recorded size, but the model retained no payload: a known
// name returns ErrNoPayload, an unknown one ErrNotFound. Virtual read
// *time* is charged through the simulated face (Read/ReadAsync), which
// is what the restart model in internal/iostrat drives.
func (b *PFS) Get(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	size, ok := b.objSize[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	b.objRead += size
	return nil, fmt.Errorf("%w: %q", ErrNoPayload, name)
}

// List implements ObjectReader: recorded names with the prefix,
// ascending.
func (b *PFS) List(prefix string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.objSize))
	for n := range b.objSize {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Accounting implements Backend.
func (b *PFS) Accounting() Accounting {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Accounting{
		BytesWritten:    b.fs.TotalBytes(),
		BytesRead:       b.fs.TotalBytesRead(),
		IOBusyTime:      b.fs.IOBusyTime(),
		Objects:         len(b.objSize),
		ObjectBytes:     b.objByte,
		ObjectReadBytes: b.objRead,
	}
}

func pfsPattern(p Pattern) pfs.Pattern {
	switch p {
	case SmallFile:
		return pfs.SmallFile
	case SharedFile:
		return pfs.SharedFile
	default:
		return pfs.BigSequential
	}
}
