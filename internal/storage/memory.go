package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/des"
	"repro/internal/pfs"
)

// simModel is the deterministic cost model shared by the memory and SDF
// backends, which embed it as their whole cost face: per-target FIFO
// service at a fixed bandwidth, constant pattern efficiencies, a
// per-file overhead and a constant metadata service time at one
// metadata server (a pfs.MDS). No jitter, no congestion — two runs are
// bit-identical. Its transfers are actors indexed in transfers,
// carved from blocks of 64 and kept for the run (their futures are
// handed out), each step an event kind.
type simModel struct {
	eng      *des.Engine
	targets  []*des.Resource
	meta     *pfs.MDS
	bw       float64 // per-target bandwidth, bytes/s
	metaTime float64 // seconds per metadata op
	overhead float64 // seconds charged once per file stream

	transfers          []*simTransfer
	spare              []simTransfer
	none               des.Future // completed: a zero-byte transfer's
	kAcquired, kServed des.Kind

	mu           sync.Mutex
	bytesWritten float64
	bytesRead    float64
	active       int
	busySince    float64
	busyTotal    float64
}

// simTransfer is one stream in flight: it queues for its target, holds
// it for its service time, then completes done.
type simTransfer struct {
	target         *des.Resource
	bytes, service float64
	read           bool
	done           des.Future
}

func newSimModel(eng *des.Engine, targets int, bandwidth float64) *simModel {
	if targets <= 0 {
		targets = 1
	}
	m := &simModel{eng: eng, bw: bandwidth, metaTime: 1e-3, overhead: 0.05}
	if eng != nil {
		m.targets = make([]*des.Resource, targets)
		for i := range m.targets {
			m.targets[i] = eng.NewResource(1)
		}
		m.meta = pfs.NewMDS(eng)
		m.none = *eng.NewFuture()
		m.none.Complete()
		m.kAcquired = eng.Handle(m.acquired)
		m.kServed = eng.Handle(m.served)
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

// simEfficiency is the fraction of target bandwidth a stream of each
// pattern achieves. The ordering mirrors the pfs model (sequential >
// small files > shared-file extent locking) so the paper's strategy
// ranking survives a backend swap.
var simEfficiency = [...]float64{BigSequential: 1.0, SmallFile: 0.45, SharedFile: 0.06}

// Create implements CostModel.
func (m *simModel) Create(k func(int32), actor int32) { m.meta.Serve(m.metaTime, k, actor) }

// Open implements CostModel.
func (m *simModel) Open(k func(int32), actor int32) { m.meta.Serve(m.metaTime, k, actor) }

// Close implements CostModel.
func (m *simModel) Close(k func(int32), actor int32) { m.meta.Serve(m.metaTime, k, actor) }

// transfer serves one stream — write or read — on a target and returns
// its future: reads are priced exactly like writes (same per-target
// FIFO, same pattern efficiency), so the restart path inherits the
// model's determinism. A stream whose target is free starts at once.
func (m *simModel) transfer(target int, bytes float64, pat Pattern, overhead float64, read bool) *des.Future {
	if bytes <= 0 {
		return &m.none
	}
	if len(m.spare) == 0 {
		m.spare = make([]simTransfer, 64)
	}
	t := &m.spare[0]
	m.spare = m.spare[1:]
	*t = simTransfer{target: m.targets[target%len(m.targets)], bytes: bytes,
		service: overhead + bytes/(m.bw*simEfficiency[pat]), read: read, done: *m.eng.NewFuture()}
	m.transfers = append(m.transfers, t)
	t.target.AcquirePost(1, m.kAcquired, int32(len(m.transfers)-1))
	return &t.done
}

// acquired puts transfer i in service on its target.
func (m *simModel) acquired(i int32) {
	m.mu.Lock()
	if m.active == 0 {
		m.busySince = m.eng.Now()
	}
	m.active++
	m.mu.Unlock()
	m.eng.Post(m.transfers[i].service, m.kServed, i)
}

// served ends transfer i: its bytes are accounted, its target passes to
// the next stream queued for it, and its future completes.
func (m *simModel) served(i int32) {
	t := m.transfers[i]
	m.mu.Lock()
	m.active--
	if m.active == 0 {
		m.busyTotal += m.eng.Now() - m.busySince
	}
	if t.read {
		m.bytesRead += t.bytes
	} else {
		m.bytesWritten += t.bytes
	}
	m.mu.Unlock()
	t.target.Release(1)
	t.done.Complete()
}

// Write implements CostModel.
func (m *simModel) Write(target int, bytes float64, pat Pattern) *des.Future {
	return m.transfer(target, bytes, pat, m.overhead, false)
}

// WriteChunk implements CostModel.
func (m *simModel) WriteChunk(target int, bytes float64, pat Pattern) *des.Future {
	return m.transfer(target, bytes, pat, 0, false)
}

// Read implements CostModel.
func (m *simModel) Read(target int, bytes float64, pat Pattern) *des.Future {
	return m.transfer(target, bytes, pat, m.overhead, true)
}

// Accounting implements CostModel: the simulated-face ledger.
func (m *simModel) Accounting() Accounting {
	m.mu.Lock()
	defer m.mu.Unlock()
	busy := m.busyTotal
	if m.active > 0 {
		busy += m.eng.Now() - m.busySince
	}
	return Accounting{BytesWritten: m.bytesWritten, BytesRead: m.bytesRead, IOBusyTime: busy}
}

// Memory is an in-memory backend: the deterministic cost model for the
// simulated face, and a plain map for real objects. It is the fast,
// reproducible choice for tests. A stored slice is never written once
// PutVec installs it (PutVec stores a fresh copy; an overwrite or a
// Delete replaces the map entry, not the bytes), so omu guards only the
// map and readers copy outside it.
type Memory struct {
	*simModel

	omu     sync.Mutex
	objects map[string][]byte
	objByte int64
	objRead atomic.Int64
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

// PutVec implements ObjectStore: the segments are gathered with a single
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

// Delete implements Backend: the object is dropped from memory.
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
	d, ok := b.objects[name]
	b.omu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	b.objRead.Add(int64(len(d)))
	return append([]byte(nil), d...), nil
}

// ReadRanges implements Backend: the ranges are copied out of the
// stored bytes, and only they count as read.
func (b *Memory) ReadRanges(name string, rs []Range) error {
	b.omu.Lock()
	d, ok := b.objects[name]
	b.omu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := CopyRanges(name, d, rs); err != nil {
		return err
	}
	b.objRead.Add(rangesLen(rs))
	return nil
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
	acc.ObjectReadBytes = b.objRead.Load()
	b.omu.Unlock()
	return acc
}
