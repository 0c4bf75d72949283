package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// ManifestSuffix is appended to a data object's name to form its
// manifest's name, so the two always sort and list together.
const ManifestSuffix = "-manifest"

// manifestFormat identifies (and versions) the manifest encoding.
// Version 2 adds the content-addressed chunk set of the data object
// (dedup stores); a manifest without chunks stays v1, so stores written
// by older code and plain backends keep decoding bit-identically.
const (
	manifestFormat   = "damaris-manifest-v1"
	manifestFormatV2 = "damaris-manifest-v2"
)

// ErrNotManifest is returned by DecodeManifest for bytes that do not
// parse as a manifest object at all.
var ErrNotManifest = errors.New("cluster: not a manifest object")

// ErrManifestFormat is returned for a parsed manifest whose format tag
// is neither v1 nor v2 — a foreign or future object this code must not
// guess at.
var ErrManifestFormat = errors.New("cluster: unsupported manifest format")

// ErrBadChunkRef is returned for a v2 manifest whose chunk list is
// structurally invalid: a hash that is not 64 hex characters, a
// non-positive size, or chunks on a manifest claiming the v1 format.
// Restore paths treat it like a missing object — known, not
// recoverable.
var ErrBadChunkRef = errors.New("cluster: invalid manifest chunk reference")

// ManifestBlock describes one block of a stored batch object: its
// identity and payload size, but not the payload itself.
type ManifestBlock struct {
	Node     int    `json:"node"`
	Source   int    `json:"source"`
	Variable string `json:"variable"`
	Bytes    int    `json:"bytes"`
}

// Manifest is the per-iteration index a tree root stores alongside its
// batch object: which origin nodes contributed, which blocks the object
// holds, and whether the root considered its coverage complete. It is
// the unit the restart path (Restore) navigates by — manifests are
// small, so a restart can decide *what* is recoverable before reading
// any payload.
type Manifest struct {
	// Format is manifestFormat; DecodeManifest rejects anything else.
	Format string `json:"format"`
	// Job is the cluster's job name (the object-name prefix).
	Job string `json:"job"`
	// Root is the tree root that stored the object.
	Root int `json:"root"`
	// Iteration is the simulation iteration the object holds.
	Iteration int `json:"iteration"`
	// Object is the name of the batch data object this manifest indexes.
	Object string `json:"object"`
	// Covers lists the origin nodes whose data (possibly zero blocks)
	// reached this root for the iteration, ascending.
	Covers []int `json:"covers"`
	// Partial marks an object stored below the root's full live-subtree
	// coverage (straggler or orphaned data flushed at shutdown).
	Partial bool `json:"partial"`
	// Blocks indexes the object's blocks in normalized order.
	Blocks []ManifestBlock `json:"blocks"`
	// Codec, RawBytes and EncodedBytes record how the store encoded the
	// data object when it runs the compression pipeline
	// (storage.Compressing): the chosen codec and the object's payload
	// size before and after encoding. Empty/zero on plain stores, so
	// old manifests keep decoding.
	Codec        string `json:"codec,omitempty"`
	RawBytes     int64  `json:"raw_bytes,omitempty"`
	EncodedBytes int64  `json:"encoded_bytes,omitempty"`
	// Chunks, ChunkRawBytes and ChunkNewBytes (manifest v2) record the
	// data object's content-addressed decomposition when the store runs
	// the dedup layer (internal/storage/chunk): the chunk set the object
	// depends on, the payload size it reassembles to, and how much of it
	// was actually new — iteration N+1 of a slowly-changing variable
	// references mostly iteration N's chunks. A restart can read the
	// whole dependency graph from manifests alone.
	Chunks        []storage.ChunkRef `json:"chunks,omitempty"`
	ChunkRawBytes int64              `json:"chunk_raw_bytes,omitempty"`
	ChunkNewBytes int64              `json:"chunk_new_bytes,omitempty"`
}

// setChunks attaches a dedup store's chunk decomposition, upgrading the
// manifest to the v2 format (chunked manifests must not decode as v1 —
// a v1-only reader would silently ignore the dependency set).
func (m *Manifest) setChunks(info storage.ChunkInfo) {
	m.Format = manifestFormatV2
	m.Chunks = append([]storage.ChunkRef(nil), info.Chunks...)
	m.ChunkRawBytes = info.RawBytes
	m.ChunkNewBytes = info.NewBytes
}

// Name returns the manifest's own object name.
func (m *Manifest) Name() string { return m.Object + ManifestSuffix }

// IsManifestName reports whether an object name denotes a manifest.
func IsManifestName(name string) bool { return strings.HasSuffix(name, ManifestSuffix) }

// ObjectIteration parses the iteration number out of a root object's or
// manifest's name, "<job>-rootNNN-itNNNNNN[-manifest]" — the inverse of
// the write path's objectName. ok is false for any other name.
func ObjectIteration(name string) (it int, ok bool) {
	name = strings.TrimSuffix(name, ManifestSuffix)
	i := strings.LastIndex(name, "-it")
	if i < 0 || !strings.Contains(name[:i], "-root") {
		return 0, false
	}
	it, err := strconv.Atoi(name[i+len("-it"):])
	return it, err == nil && it >= 0
}

// newManifest builds the manifest for a normalized batch about to be
// stored under object name obj.
func newManifest(job string, root int, obj string, b *Batch, covers []int, partial bool) *Manifest {
	m := &Manifest{
		Format:    manifestFormat,
		Job:       job,
		Root:      root,
		Iteration: b.Iteration,
		Object:    obj,
		Covers:    append([]int(nil), covers...),
		Partial:   partial,
		Blocks:    make([]ManifestBlock, 0, len(b.Blocks)),
	}
	for _, blk := range b.Blocks {
		m.Blocks = append(m.Blocks, ManifestBlock{
			Node:     blk.Node,
			Source:   blk.Source,
			Variable: blk.Variable,
			Bytes:    len(blk.Data),
		})
	}
	return m
}

// EncodeManifest serializes a manifest. Field order is fixed and Covers
// and Blocks arrive sorted, so equal manifests encode to equal bytes —
// the same determinism contract EncodeBatch keeps.
func EncodeManifest(m *Manifest) []byte {
	data, err := json.Marshal(m)
	if err != nil {
		// Manifest contains only ints, strings and slices thereof.
		panic(fmt.Sprintf("cluster: manifest encoding: %v", err))
	}
	return data
}

// DecodeManifest parses an object produced by EncodeManifest, accepting
// both format versions. A v2 manifest's chunk list is validated
// structurally — 64-hex hashes, positive sizes, sizes summing to the
// declared raw payload — so a corrupt or hand-forged manifest surfaces
// as a typed error here instead of a confusing failure deep in restore.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotManifest, err)
	}
	switch m.Format {
	case manifestFormat:
		if len(m.Chunks) > 0 {
			return nil, fmt.Errorf("%w: v1 manifest carries %d chunks", ErrBadChunkRef, len(m.Chunks))
		}
	case manifestFormatV2:
		var sum int64
		for i, r := range m.Chunks {
			if len(r.Hash) != 64 || !isHex(r.Hash) {
				return nil, fmt.Errorf("%w: chunk %d hash %q", ErrBadChunkRef, i, r.Hash)
			}
			if r.Bytes <= 0 {
				return nil, fmt.Errorf("%w: chunk %d size %d", ErrBadChunkRef, i, r.Bytes)
			}
			sum += int64(r.Bytes)
		}
		if len(m.Chunks) > 0 && sum != m.ChunkRawBytes {
			return nil, fmt.Errorf("%w: chunks sum to %d bytes, manifest says %d",
				ErrBadChunkRef, sum, m.ChunkRawBytes)
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrManifestFormat, m.Format)
	}
	return &m, nil
}

// isHex reports whether s is entirely lowercase hex digits.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
