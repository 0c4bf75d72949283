package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ManifestSuffix is appended to a data object's name to form its
// manifest's name, so the two always sort and list together.
const ManifestSuffix = "-manifest"

// manifestFormat identifies (and versions) the manifest encoding.
const manifestFormat = "damaris-manifest-v1"

// ErrNotManifest is returned by DecodeManifest for bytes that do not
// parse as a manifest object at all.
var ErrNotManifest = errors.New("cluster: not a manifest object")

// ErrManifestFormat is returned for a parsed manifest whose format tag
// is not manifestFormat — a foreign or future object this code must not
// guess at.
var ErrManifestFormat = errors.New("cluster: unsupported manifest format")

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
// any payload. It records cluster facts only: how the store laid the
// bytes down (codec, chunks) is in the store's own frame header and
// recipe, not copied here.
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

// DecodeManifest parses an object produced by EncodeManifest; any
// other format tag fails with ErrManifestFormat.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotManifest, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("%w: %q", ErrManifestFormat, m.Format)
	}
	return &m, nil
}
