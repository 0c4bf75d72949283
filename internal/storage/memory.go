package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/des"
	"repro/internal/pfs"
	"repro/internal/rng"
)

// simModel is the deterministic cost model shared by the memory and SDF
// backends, which embed it as their whole cost face: per-target FIFO
// service at a fixed bandwidth, constant pattern efficiencies, a
// per-file overhead and a constant metadata service time. No jitter, no
// congestion — two runs are bit-identical.
type simModel struct {
	eng      *des.Engine
	targets  []*des.Resource
	metaRes  *des.Resource
	bw       float64 // per-target bandwidth, bytes/s
	metaTime float64 // seconds per metadata op
	overhead float64 // seconds charged once per file stream

	// Pattern efficiencies: the fraction of target bandwidth a stream
	// of each pattern achieves. The ordering mirrors the pfs model
	// (sequential > small files > shared-file extent locking) so the
	// paper's strategy ranking survives a backend swap.
	effSeq    float64
	effSmall  float64
	effShared float64

	mu           sync.Mutex
	bytesWritten float64
	bytesRead    float64
	active       int
	busySince    float64
	busyTotal    float64
}

func newSimModel(eng *des.Engine, targets int, bandwidth float64) *simModel {
	if targets <= 0 {
		targets = 1
	}
	m := &simModel{
		eng:       eng,
		bw:        bandwidth,
		metaTime:  1e-3,
		overhead:  0.05,
		effSeq:    1.0,
		effSmall:  0.45,
		effShared: 0.06,
	}
	if eng != nil {
		m.targets = make([]*des.Resource, targets)
		for i := range m.targets {
			m.targets[i] = eng.NewResource(1)
		}
		m.metaRes = eng.NewResource(1)
	}
	return m
}

// Engine implements CostModel.
func (m *simModel) Engine() *des.Engine { return m.eng }

// Targets implements CostModel.
func (m *simModel) Targets() int {
	if m.targets == nil {
		return 1
	}
	return len(m.targets)
}

// BeginPhase implements CostModel (no congestion model: nothing to draw).
func (m *simModel) BeginPhase() {}

func (m *simModel) eff(pat Pattern) float64 {
	switch pat {
	case SmallFile:
		return m.effSmall
	case SharedFile:
		return m.effShared
	default:
		return m.effSeq
	}
}

func (m *simModel) metaOp(k func()) {
	m.metaRes.AcquireThen(1, func() {
		m.eng.Wait(m.metaTime, func() {
			m.metaRes.Release(1)
			k()
		})
	})
}

// Create implements CostModel.
func (m *simModel) Create(k func()) { m.metaOp(k) }

// Open implements CostModel.
func (m *simModel) Open(k func()) { m.metaOp(k) }

// Close implements CostModel.
func (m *simModel) Close(k func()) { m.metaOp(k) }

func (m *simModel) beginTransfer() {
	m.mu.Lock()
	if m.active == 0 {
		m.busySince = m.eng.Now()
	}
	m.active++
	m.mu.Unlock()
}

func (m *simModel) endTransfer(bytes float64, read bool) {
	m.mu.Lock()
	m.active--
	if m.active == 0 {
		m.busyTotal += m.eng.Now() - m.busySince
	}
	if read {
		m.bytesRead += bytes
	} else {
		m.bytesWritten += bytes
	}
	m.mu.Unlock()
}

// transfer serves one stream — write or read — on a target, then runs
// k: reads are priced exactly like writes (same per-target FIFO, same
// pattern efficiency), so the restart path inherits the model's
// determinism.
func (m *simModel) transfer(target int, bytes float64, pat Pattern, overhead float64, read bool, k func()) {
	if bytes <= 0 {
		k()
		return
	}
	t := m.targets[target%len(m.targets)]
	t.AcquireThen(1, func() {
		m.beginTransfer()
		m.eng.Wait(overhead+bytes/(m.bw*m.eff(pat)), func() {
			m.endTransfer(bytes, read)
			t.Release(1)
			k()
		})
	})
}

// Write implements CostModel.
func (m *simModel) Write(target int, bytes float64, pat Pattern, k func()) {
	m.transfer(target, bytes, pat, m.overhead, false, k)
}

// WriteChunk implements CostModel.
func (m *simModel) WriteChunk(target int, bytes float64, pat Pattern, k func()) {
	m.transfer(target, bytes, pat, 0, false, k)
}

// Read implements CostModel.
func (m *simModel) Read(target int, bytes float64, pat Pattern, k func()) {
	m.transfer(target, bytes, pat, m.overhead, true, k)
}

// transferAsync starts a transfer in an event of its own at the current
// time — it queues for its target after whatever the caller does next
// in this event — and returns a future completed when it finishes.
func (m *simModel) transferAsync(target int, bytes float64, pat Pattern, read bool) *des.Future {
	f := m.eng.NewFuture()
	if bytes <= 0 {
		f.Complete()
		return f
	}
	m.eng.Wait(0, func() { m.transfer(target, bytes, pat, m.overhead, read, f.Complete) })
	return f
}

// WriteAsync implements CostModel.
func (m *simModel) WriteAsync(target int, bytes float64, pat Pattern) *des.Future {
	return m.transferAsync(target, bytes, pat, false)
}

// ReadAsync implements CostModel.
func (m *simModel) ReadAsync(target int, bytes float64, pat Pattern) *des.Future {
	return m.transferAsync(target, bytes, pat, true)
}

// PlaceFile implements CostModel: a reproducible random draw of targets.
func (m *simModel) PlaceFile(stripes int, r *rng.Stream) []int {
	return pfs.Place(m.Targets(), stripes, r)
}

// Accounting implements CostModel: the simulated-face ledger.
func (m *simModel) Accounting() Accounting {
	m.mu.Lock()
	defer m.mu.Unlock()
	busy := m.busyTotal
	if m.active > 0 {
		busy += m.eng.Now() - m.busySince
	}
	return Accounting{
		BytesWritten: m.bytesWritten,
		BytesRead:    m.bytesRead,
		IOBusyTime:   busy,
	}
}

// Memory is an in-memory backend: the deterministic cost model for the
// simulated face, and a plain map for real objects. It is the fast,
// reproducible choice for tests.
type Memory struct {
	*simModel

	omu     sync.Mutex
	objects map[string][]byte
	objByte int64
	objRead int64
}

// NewMemory builds a memory backend with the given number of targets
// and per-target bandwidth. eng may be nil when only the object face
// (Put/Get) is used.
func NewMemory(eng *des.Engine, targets int, bandwidth float64) *Memory {
	return &Memory{
		simModel: newSimModel(eng, targets, bandwidth),
		objects:  map[string][]byte{},
	}
}

// Name implements Backend.
func (b *Memory) Name() string { return "memory" }

// Put implements ObjectStore: the object is kept in memory.
func (b *Memory) Put(name string, data []byte) error {
	return b.PutVec(name, [][]byte{data})
}

// PutVec implements VecStore: the segments are gathered with a single
// copy into the one buffer the store keeps — the backend's share of
// the zero-copy aggregation path (callers never pre-flatten).
func (b *Memory) PutVec(name string, segs [][]byte) error {
	if name == "" {
		return fmt.Errorf("storage: empty object name")
	}
	obj := FlattenSegs(segs)
	b.omu.Lock()
	defer b.omu.Unlock()
	if old, ok := b.objects[name]; ok {
		b.objByte -= int64(len(old))
	}
	b.objects[name] = obj
	b.objByte += int64(len(obj))
	return nil
}

// Delete implements ObjectDeleter: the object is dropped from memory.
func (b *Memory) Delete(name string) error {
	b.omu.Lock()
	defer b.omu.Unlock()
	d, ok := b.objects[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	b.objByte -= int64(len(d))
	delete(b.objects, name)
	return nil
}

// Get implements ObjectReader: a copy of the stored bytes.
func (b *Memory) Get(name string) ([]byte, error) {
	b.omu.Lock()
	defer b.omu.Unlock()
	d, ok := b.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	b.objRead += int64(len(d))
	return append([]byte(nil), d...), nil
}

// List implements ObjectReader: stored names with the prefix, ascending.
func (b *Memory) List(prefix string) ([]string, error) {
	b.omu.Lock()
	defer b.omu.Unlock()
	names := make([]string, 0, len(b.objects))
	for n := range b.objects {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Accounting implements Backend.
func (b *Memory) Accounting() Accounting {
	acc := b.simModel.Accounting()
	b.omu.Lock()
	acc.Objects = len(b.objects)
	acc.ObjectBytes = b.objByte
	acc.ObjectReadBytes = b.objRead
	b.omu.Unlock()
	return acc
}
