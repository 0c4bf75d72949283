// Package storage abstracts where aggregated output lands. The three
// I/O strategies, the experiments and the cluster layer write through
// the Backend interface instead of calling the pfs model directly, so a
// run can target:
//
//   - the discrete-event Lustre model (KindPFS) — the paper's storage
//     substrate with metadata serialization, pattern-dependent OST
//     efficiency, jitter and congestion;
//   - a deterministic in-memory model (KindMemory) — no jitter, fixed
//     pattern efficiencies, fast and bit-reproducible, for tests;
//   - a local-filesystem SDF store (KindSDF) — same deterministic cost
//     model, but real objects are persisted as SDF files via
//     internal/sdf, so small runs leave inspectable artifacts.
//
// A Backend is the composition of two independent faces. The cost face
// (CostModel: Create/Open/Close/Write/Read..., *des.Proc-blocking)
// charges virtual time and feeds the cost accounting; it is all the
// iostrat strategies depend on. The object faces (ObjectStore,
// ObjectReader: Put/Get/List) store and serve actual bytes and are what
// the runtime cluster layer, restart path and plugins depend on; on the
// pure DES model they degrade to accounting only (Get returns
// ErrNoPayload). A reduction layer (Compressing, the chunk store) is a
// codec on the object faces plus two cost functions on the cost face,
// applied by Reduce — it never re-implements a transfer method.
package storage

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/topology"
)

// ErrNotFound is returned by Get when no object with the given name was
// ever stored. Callers should test with errors.Is.
var ErrNotFound = errors.New("storage: object not found")

// ErrNoPayload is returned by Get on backends that account objects
// without retaining their bytes (the pure pfs cost model): the object
// exists — List sees it, the read is charged to the ledger — but there
// is nothing to hand back. Restart paths treat it as "known but not
// recoverable from this backend".
var ErrNoPayload = errors.New("storage: object payload not retained")

// Pattern classifies a write stream's access pattern; it mirrors the
// pfs patterns so every backend can price concurrency the same way.
type Pattern int

const (
	// BigSequential is a large contiguous stream into its own file.
	BigSequential Pattern = iota
	// SmallFile is a per-process file written in small chunks.
	SmallFile
	// SharedFile is a write into a file shared with other clients,
	// subject to extent-lock serialization.
	SharedFile
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case BigSequential:
		return "big-sequential"
	case SmallFile:
		return "small-file"
	case SharedFile:
		return "shared-file"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Accounting is the cost ledger every backend maintains.
type Accounting struct {
	// BytesWritten is the completed simulated payload in bytes.
	BytesWritten float64
	// IOBusyTime is the union of time with at least one transfer in
	// flight; BytesWritten/IOBusyTime is the achieved throughput.
	IOBusyTime float64
	// FilesCreated counts simulated file creates (metadata ops).
	FilesCreated int
	// BytesRead is the completed simulated read payload in bytes (the
	// restart path's mirror of BytesWritten).
	BytesRead float64
	// Objects and ObjectBytes count real objects stored through Put.
	Objects     int
	ObjectBytes int64
	// ObjectsRead and ObjectReadBytes count real objects served back
	// through Get (pfs counts the request even though it returns no
	// payload).
	ObjectsRead     int
	ObjectReadBytes int64

	// Compression-pipeline counters, populated only when the backend is
	// wrapped in Compressing (zero otherwise).

	// BytesSaved is the simulated payload kept off the NIC/PFS transfer
	// by encoding on the DES face (raw minus encoded volume).
	BytesSaved float64
	// EncodeTime and DecodeTime are the codec CPU seconds charged on
	// the dedicated cores — the §IV.D spare time spent to earn
	// BytesSaved (both faces contribute; trial encodes count too).
	EncodeTime float64
	DecodeTime float64
	// ObjectsCompressed counts real objects stored framed, with their
	// payload volume before and after encoding.
	ObjectsCompressed  int
	ObjectRawBytes     int64
	ObjectEncodedBytes int64
	// PerCodec splits the object counters by chosen codec (nil when no
	// framed object was stored).
	PerCodec map[string]CodecCount

	// Dedup-store counters, populated only when the backend is wrapped
	// in a content-addressed chunk store (internal/storage/chunk; zero
	// otherwise).

	// ChunkHashTime is the chunking + hashing CPU seconds charged on
	// the dedicated cores — like the codec times, §IV.D spare time
	// spent to earn DedupBytesSaved.
	ChunkHashTime float64
	// DedupBytesSaved is the simulated payload kept off the NIC/PFS
	// transfer because the chunk store only forwards bytes it has not
	// seen before (DES face), plus — on the real face — the raw bytes
	// of chunks deduplicated against already-stored ones.
	DedupBytesSaved float64
	// ChunksStored and ChunksDeduped count real chunks written to the
	// inner backend (in packs) vs chunks satisfied by an existing stored
	// copy, with their raw payload volumes.
	ChunksStored      int
	ChunksDeduped     int
	ChunkBytesStored  int64
	ChunkBytesDeduped int64
	// ChunksCollected and ChunkBytesFreed count what refcount GC sweeps
	// reclaimed from the inner backend.
	ChunksCollected int
	ChunkBytesFreed int64
}

// ObjectStore is the real-data write face of a backend: store a named
// blob. Every Backend implements it; consumers that only persist
// objects (the cluster layer, plugins) should depend on this narrow
// interface.
type ObjectStore interface {
	// Put durably stores data under name. Implementations must be safe
	// for concurrent use.
	Put(name string, data []byte) error
}

// ObjectReader is the real-data read face of a backend: fetch objects
// back and enumerate what is stored. Restart/replay consumers
// (cluster.Restore, sdfdump's store listing) should depend on this
// narrow interface.
type ObjectReader interface {
	// Get returns a stored object's bytes. It returns ErrNotFound for a
	// name never stored and ErrNoPayload on backends that account
	// objects without retaining bytes. Implementations must be safe for
	// concurrent use.
	Get(name string) ([]byte, error)
	// List returns the stored object names with the given prefix,
	// ascending ("" lists everything).
	List(prefix string) ([]string, error)
}

// ObjectDeleter is the optional delete face of a backend: remove a
// stored object by name. The built-in backends implement it; wrappers
// (Compressing, the chunk store) forward it to their inner backend.
// Garbage collection (chunk.Store.Sweep) depends on it — a store
// without it can only drop objects from its index, not free bytes.
type ObjectDeleter interface {
	// Delete removes the named object. Deleting a name that was never
	// stored returns ErrNotFound. Implementations must be safe for
	// concurrent use.
	Delete(name string) error
}

// The five declarations below are kept only because the benchmark
// harness (benchmark/adapter.go) still names them in forwarders. No
// store implements the two interfaces and nothing outside the benchmark
// consumes them: how an object was stored is read from the store itself
// (ParseFrameHeader, the chunk store's recipe). Delete them together
// with the benchmark's forwarders.

// CodecInfo is the result type of the codec interface; see above.
type CodecInfo struct {
	Codec        string
	RawBytes     int64
	EncodedBytes int64
}

// ObjectCodecInfoer is implemented by no store; see above.
type ObjectCodecInfoer interface {
	ObjectCodec(name string) (CodecInfo, bool)
}

// ChunkRef is an element of ChunkInfo; see above.
type ChunkRef struct {
	Hash  string `json:"hash"`
	Bytes int    `json:"bytes"`
}

// ChunkInfo is the result type of the chunk interface; see above.
type ChunkInfo struct {
	Chunks   []ChunkRef
	RawBytes int64
	NewBytes int64
}

// ObjectChunkInfoer is implemented by no store; see above.
type ObjectChunkInfoer interface {
	ObjectChunks(name string) (ChunkInfo, bool)
}

// Retainer is the reference-lifecycle face of a store with garbage
// collection: objects start live when Put, Retain pins them an extra
// reference, Release drops one, and a sweep may collect whatever
// reached zero. Consumers (cluster retention) test for it with a type
// assertion, so stores without GC keep working unchanged.
type Retainer interface {
	// Retain adds one reference to a stored object, loading its chunk
	// references from the store if this process has not seen it.
	Retain(name string) error
	// Release drops one reference. An object at zero references — and
	// every chunk no live object references — becomes collectable by
	// the next sweep.
	Release(name string) error
}

// VecStore is the scatter-gather write face: store one object whose
// bytes arrive as an iovec-style segment list. Implementations must
// treat the concatenation of segs as the object's bytes and must own
// their copy by the time PutVec returns — callers are free to recycle
// the segment buffers immediately afterwards. Stores that can do better
// than gather-then-Put implement it (Memory, PFS, Compressing); callers
// go through the PutVec helper, which flattens for everyone else.
type VecStore interface {
	// PutVec durably stores the concatenation of segs under name.
	// Implementations must be safe for concurrent use.
	PutVec(name string, segs [][]byte) error
}

// PutVec writes a scatter-gather segment list as one object: through
// the store's VecStore face when it has one (zero or one copy,
// depending on the backend), or by flattening into a single buffer for
// a plain ObjectStore. Either way the store owns its bytes when PutVec
// returns, so callers may recycle the segment buffers.
func PutVec(store ObjectStore, name string, segs [][]byte) error {
	if vs, ok := store.(VecStore); ok {
		return vs.PutVec(name, segs)
	}
	return store.Put(name, FlattenSegs(segs))
}

// SegsLen returns the total byte length of a segment list.
func SegsLen(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// FlattenSegs concatenates a segment list into one freshly allocated
// buffer (the scatter-gather fallback for contiguous consumers).
func FlattenSegs(segs [][]byte) []byte {
	out := make([]byte, 0, SegsLen(segs))
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// CostModel is the simulated face of a storage target: operations that
// charge virtual time on a des.Proc, and the ledger they feed. The
// iostrat strategies depend on this face alone.
type CostModel interface {
	// Engine returns the DES engine the model charges time on (nil for a
	// backend built for its object faces only).
	Engine() *des.Engine
	// Targets returns the number of independent storage targets (OSTs,
	// disks); placement indices are taken modulo this.
	Targets() int
	// BeginPhase marks the start of one application I/O phase (the pfs
	// model redraws per-OST congestion there).
	BeginPhase()

	// Create, Open and Close are blocking metadata operations.
	Create(p *des.Proc)
	Open(p *des.Proc)
	Close(p *des.Proc)

	// Write blocks until a whole-file write of bytes with the given
	// pattern to the target completes (per-file overhead charged).
	Write(p *des.Proc, target int, bytes float64, pat Pattern)
	// WriteChunk is Write without the per-file overhead (one round of
	// an already-open file).
	WriteChunk(p *des.Proc, target int, bytes float64, pat Pattern)
	// WriteAsync submits a whole-file write and returns a future
	// completed when the transfer finishes.
	WriteAsync(target int, bytes float64, pat Pattern) *des.Future

	// Read blocks until a whole-file read of bytes with the given
	// pattern from the target completes (per-file overhead charged) —
	// the restart path's mirror of Write. Reads flow through the same
	// per-target queues as writes, so a restart competes with whatever
	// else the storage system serves.
	Read(p *des.Proc, target int, bytes float64, pat Pattern)
	// ReadAsync submits a whole-file read and returns a future
	// completed when the transfer finishes.
	ReadAsync(target int, bytes float64, pat Pattern) *des.Future

	// PlaceFile chooses stripes distinct targets for a new file, drawn
	// from r so placement is reproducible per caller.
	PlaceFile(stripes int, r *rng.Stream) []int

	// Accounting returns a snapshot of the cost ledger.
	Accounting() Accounting
}

// Backend is a storage target: the cost face and the object faces of
// one store, composed. Code that needs only one of them should depend
// on that face.
type Backend interface {
	CostModel
	ObjectStore
	ObjectReader

	// Name identifies the backend kind in logs and reports.
	Name() string
}

// Kind names a backend implementation.
type Kind string

// The built-in backends.
const (
	KindPFS    Kind = "pfs"
	KindMemory Kind = "memory"
	KindSDF    Kind = "sdf"
)

// Kinds lists the built-in backend kinds.
func Kinds() []Kind { return []Kind{KindPFS, KindMemory, KindSDF} }

// New builds the named backend sized for the platform's storage system.
// eng is the DES engine of the run; r seeds stochastic models (only the
// pfs backend draws from it); dir is the artifact directory of the SDF
// backend (unused by the others).
func New(kind Kind, eng *des.Engine, plat topology.Platform, r *rng.Stream, dir string) (Backend, error) {
	switch kind {
	case KindPFS, "":
		return NewPFS(eng, plat.PFS, r), nil
	case KindMemory:
		return NewMemory(eng, plat.PFS.OSTs, plat.PFS.OSTBandwidth), nil
	case KindSDF:
		return NewSDF(eng, plat.PFS.OSTs, plat.PFS.OSTBandwidth, dir)
	default:
		return nil, fmt.Errorf("storage: unknown backend kind %q", kind)
	}
}
