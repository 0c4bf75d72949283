// Package storage abstracts where aggregated output lands. It has two
// faces, and a type serves one of them:
//
//   - The cost face (CostModel: metadata operations that continue,
//     transfers that return futures) charges virtual time and feeds the
//     cost ledger; it is all the iostrat strategies depend on. PFS is the
//     paper's storage substrate, the discrete-event Lustre model with
//     metadata serialization, pattern-dependent OST efficiency, jitter
//     and congestion. CodecCost prices the compression pipeline on top
//     of any cost model.
//   - The object face (Backend: Put/PutVec, Get/List, ReadRanges and
//     Delete plus a ledger, every store all of them) stores and serves
//     real bytes; the runtime cluster layer, the restart path and
//     plugins depend on it. Memory keeps objects in a map; SDF persists
//     each as an SDF file via internal/sdf, so small runs leave
//     inspectable artifacts. Compressing frames and encodes objects over
//     either.
//
// A reduction layer is two values: an object-store wrapper (Compressing,
// chunk.Store) and a cost twin (CodecCost, chunk.Cost) that applies the
// layer's two cost functions with Reduce — neither re-implements the
// other's face. Memory and SDF still carry both faces: each embeds a
// deterministic flat cost model (no jitter, fixed pattern efficiencies,
// bit-reproducible).
package storage

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/des"
)

// ErrNotFound is returned by Get when no object with the given name was
// ever stored. Callers should test with errors.Is.
var ErrNotFound = errors.New("storage: object not found")

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

// Accounting is the ledger of a cost model or an object store: each
// fills the fields of its face.
type Accounting struct {
	// BytesWritten is the completed simulated payload in bytes.
	BytesWritten float64
	// IOBusyTime is the union of time with at least one transfer in
	// flight; BytesWritten/IOBusyTime is the achieved throughput.
	IOBusyTime float64
	// BytesRead is the completed simulated read payload in bytes (the
	// restart path's mirror of BytesWritten).
	BytesRead float64
	// Objects and ObjectBytes count real objects stored through Put.
	Objects     int
	ObjectBytes int64
	// ObjectReadBytes counts the real object bytes served back through
	// Get.
	ObjectReadBytes int64

	// Compression-pipeline counters, populated only under CodecCost or
	// Compressing (zero otherwise).

	// BytesSaved is the simulated payload kept off the NIC/PFS transfer
	// by encoding on the cost face (raw minus encoded volume).
	BytesSaved float64
	// EncodeTime and DecodeTime are the codec CPU seconds charged on
	// the dedicated cores — the §IV.D spare time spent to earn
	// BytesSaved (on the object face trial encodes count too).
	EncodeTime float64
	DecodeTime float64
	// ObjectsCompressed counts real objects stored framed, with their
	// payload volume before and after encoding.
	ObjectsCompressed  int
	ObjectRawBytes     int64
	ObjectEncodedBytes int64

	// Dedup counters, populated only under the content-addressed chunk
	// store or its cost twin (internal/storage/chunk; zero otherwise).

	// ChunkHashTime is the chunking + hashing CPU seconds charged on
	// the dedicated cores — like the codec times, §IV.D spare time
	// spent to earn DedupBytesSaved.
	ChunkHashTime float64
	// DedupBytesSaved is the simulated payload kept off the NIC/PFS
	// transfer because the chunk store only forwards bytes it has not
	// seen before (cost face), or the raw bytes of chunks deduplicated
	// against already-stored ones (object face).
	DedupBytesSaved float64
	// ChunksStored and ChunksDeduped count real chunks written to the
	// inner backend (in packs) vs chunks satisfied by an existing stored
	// copy.
	ChunksStored  int
	ChunksDeduped int
}

// ObjectStore is the real-data write face of a store: store a named
// blob, whole or as an iovec-style segment list. Every Backend
// implements it; consumers that only persist objects (the cluster
// layer, plugins) should depend on this narrow interface.
type ObjectStore interface {
	// Put durably stores data under name. Implementations must be safe
	// for concurrent use.
	Put(name string, data []byte) error
	// PutVec durably stores the concatenation of segs under name; the
	// store owns its copy when PutVec returns, so callers may recycle
	// the segments. Implementations must be safe for concurrent use.
	PutVec(name string, segs [][]byte) error
}

// ObjectReader is the real-data read face of a store: fetch objects
// back and enumerate what is stored. Restart/replay consumers
// (cluster.Restore, sdfdump's store listing) should depend on this
// narrow interface.
type ObjectReader interface {
	// Get returns a stored object's bytes. It returns ErrNotFound for a
	// name never stored. The returned slice belongs to the caller: the
	// store keeps no reference to it (cluster.DecodeBatch aliases it).
	// Implementations must be safe for concurrent use.
	Get(name string) ([]byte, error)
	// List returns the stored object names with the given prefix,
	// ascending ("" lists everything).
	List(prefix string) ([]string, error)
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
// reached zero. It is the one face a Backend may lack, because only
// the chunk store has GC; cluster retention tests for it with a type
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

// PutVec is store.PutVec, kept for the benchmark harness's callers.
func PutVec(store ObjectStore, name string, segs [][]byte) error {
	return store.PutVec(name, segs)
}

// ErrOutOfRange is returned by a ranged read for a range that does not
// lie inside the object. Callers should test with errors.Is.
var ErrOutOfRange = errors.New("storage: range outside object")

// Range is one piece of a ranged read: the len(Dst) bytes of an object
// that start Off bytes into it, read into Dst.
type Range struct {
	Off int64
	Dst []byte
}

// CopyRanges fills each range's Dst from obj, the whole object: the
// ranged read of a store that holds or rebuilds objects whole.
func CopyRanges(name string, obj []byte, rs []Range) error {
	for _, rg := range rs {
		if rg.Off < 0 || rg.Off > int64(len(obj)) || int64(len(rg.Dst)) > int64(len(obj))-rg.Off {
			return fmt.Errorf("%w: object %q is %d bytes, range [%d, +%d)",
				ErrOutOfRange, name, len(obj), rg.Off, len(rg.Dst))
		}
		copy(rg.Dst, obj[rg.Off:])
	}
	return nil
}

// rangesLen returns the total byte length of a range list.
func rangesLen(rs []Range) int64 {
	var n int64
	for _, rg := range rs {
		n += int64(len(rg.Dst))
	}
	return n
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
// buffer (the scatter-gather fallback for contiguous consumers). The
// buffer is not cleared before the copy; an empty result may be nil.
func FlattenSegs(segs [][]byte) []byte { return bytes.Join(segs, nil) }

// CostModel is the simulated face of a storage target: operations that
// charge virtual time, and the ledger they feed. The iostrat strategies
// depend on this face alone. Metadata operations continue: each takes
// the continuation k it runs once done, inline or from a later event.
// Transfers return futures, completed when they finish, which the
// simulated actors — every one a state machine — follow with Then or
// ThenPost; a zero-byte transfer returns a completed one.
type CostModel interface {
	// Engine returns the DES engine the model charges time on (nil for a
	// Memory or SDF store built for its object face only).
	Engine() *des.Engine
	// Targets returns the number of independent storage targets (OSTs,
	// disks); placement indices are taken modulo this.
	Targets() int
	// BeginPhase marks the start of one application I/O phase (the pfs
	// model redraws per-OST congestion there).
	BeginPhase()

	// Create, Open and Close are metadata operations.
	Create(k func())
	Open(k func())
	Close(k func())

	// Write submits a whole-file write of bytes with the given pattern
	// to the target (per-file overhead charged).
	Write(target int, bytes float64, pat Pattern) *des.Future
	// WriteChunk is Write without the per-file overhead (one round of
	// an already-open file).
	WriteChunk(target int, bytes float64, pat Pattern) *des.Future
	// Read submits a whole-file read of bytes with the given pattern
	// from the target (per-file overhead charged) — the restart path's
	// mirror of Write. Reads flow through the same per-target queues as
	// writes, so a restart competes with whatever else the storage
	// system serves.
	Read(target int, bytes float64, pat Pattern) *des.Future

	// Accounting returns a snapshot of the cost ledger.
	Accounting() Accounting
}

// Backend is an object store: every object face plus the store's ledger
// and name. Every store has all of them, so no caller probes for one;
// the reduction layers (Compressing, chunk.Store) wrap one and are one.
type Backend interface {
	ObjectStore
	ObjectReader

	// ReadRanges fills every range's Dst from the named object. It
	// returns ErrNotFound for a name never stored and ErrOutOfRange for
	// a range outside the object; on an error the Dst contents are
	// undefined. Implementations must be safe for concurrent use.
	ReadRanges(name string, rs []Range) error
	// Delete removes the named object, or returns ErrNotFound.
	// Implementations must be safe for concurrent use.
	Delete(name string) error

	// Accounting returns a snapshot of the store's ledger.
	Accounting() Accounting
	// Name identifies the store in logs and reports.
	Name() string
}
