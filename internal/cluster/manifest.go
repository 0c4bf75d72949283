package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ManifestSuffix is appended to a data object's name to form its
// manifest's name, so the two always sort and list together.
const ManifestSuffix = "-manifest"

// manifestFormat identifies (and versions) the manifest encoding.
const manifestFormat = "damaris-manifest-v2"

// ErrNotManifest is returned by DecodeManifest for bytes that do not
// parse as a whole manifest object.
var ErrNotManifest = errors.New("cluster: not a manifest object")

// ErrManifestFormat is returned for a manifest of another
// damaris-manifest version — an older (the JSON v1 layout) or future
// object this code must not guess at.
var ErrManifestFormat = errors.New("cluster: unsupported manifest format")

// ManifestBlock describes one block of a stored batch object: its
// identity and payload size, but not the payload itself.
type ManifestBlock struct {
	Node     int
	Source   int
	Variable string
	Bytes    int
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
	Format string
	// Job is the cluster's job name (the object-name prefix).
	Job string
	// Root is the tree root that stored the object.
	Root int
	// Iteration is the simulation iteration the object holds.
	Iteration int
	// Object is the name of the batch data object this manifest indexes.
	Object string
	// Covers lists the origin nodes whose data (possibly zero blocks)
	// reached this root for the iteration, ascending.
	Covers []int
	// Partial marks an object stored below the root's full live-subtree
	// coverage (straggler or orphaned data flushed at shutdown).
	Partial bool
	// Blocks indexes the object's blocks in normalized order.
	Blocks []ManifestBlock
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
// stored under object name obj; it keeps covers.
func newManifest(job string, root int, obj string, b *Batch, covers []int, partial bool) *Manifest {
	m := &Manifest{
		Format:    manifestFormat,
		Job:       job,
		Root:      root,
		Iteration: b.Iteration,
		Object:    obj,
		Covers:    covers,
		Partial:   partial,
		Blocks:    make([]ManifestBlock, 0, len(b.Blocks)),
	}
	for _, blk := range b.Blocks {
		m.Blocks = append(m.Blocks, blk.manifestBlock())
	}
	return m
}

// EncodeManifest serializes a manifest as a little-endian record of its
// fields in order: strings and lists u32-length-prefixed, Partial one
// byte, a block DMB1's block header without the payload. Equal
// manifests encode to equal bytes. m.Format is written as it is.
func EncodeManifest(m *Manifest) []byte {
	n := 29 + len(m.Format) + len(m.Job) + len(m.Object) + 4*len(m.Covers)
	for _, blk := range m.Blocks {
		n += 16 + len(blk.Variable)
	}
	out := appendStr(appendStr(make([]byte, 0, n), m.Format), m.Job)
	out = appendStr(appendU32(out, m.Root, m.Iteration), m.Object)
	out = appendU32(appendU32(out, len(m.Covers)), m.Covers...)
	partial := byte(0)
	if m.Partial {
		partial = 1
	}
	out = appendU32(append(out, partial), len(m.Blocks))
	for _, blk := range m.Blocks {
		out = appendU32(appendStr(appendU32(out, blk.Node, blk.Source), blk.Variable), blk.Bytes)
	}
	return out
}

// DecodeManifest parses an object produced by EncodeManifest. Another
// damaris-manifest version, the JSON v1 layout included, fails with
// ErrManifestFormat; anything else that is not exactly one well-formed
// manifest fails with ErrNotManifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	return decodeManifest(data, make(map[string]string, 16))
}

// decodeManifest is DecodeManifest interning variable names in names.
func decodeManifest(data []byte, names map[string]string) (*Manifest, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("%w: a JSON damaris-manifest-v1 object (no longer read; rewrite the store)", ErrManifestFormat)
	}
	c := cursor{rest: data, names: names}
	m := &Manifest{Format: c.str("format tag")}
	switch {
	case m.Format == manifestFormat: // this layout: read on
	case strings.HasPrefix(m.Format, "damaris-manifest-"):
		return nil, fmt.Errorf("%w: %q", ErrManifestFormat, m.Format)
	default:
		return nil, fmt.Errorf("%w: format tag %q", ErrNotManifest, m.Format)
	}
	m.Job = c.str("job")
	m.Root, m.Iteration, m.Object = int(c.u32("root")), int(c.u32("iteration")), c.str("object")
	n := c.u32("covers")
	for m.Covers = make([]int, 0, c.room(n, 4)); uint32(len(m.Covers)) < n && c.short == ""; {
		m.Covers = append(m.Covers, int(c.u32("covers")))
	}
	partial := c.take(1, "partial flag")
	m.Partial = partial != nil && partial[0] == 1
	n = c.u32("blocks")
	for m.Blocks = make([]ManifestBlock, 0, c.room(n, 16)); uint32(len(m.Blocks)) < n && c.short == ""; {
		m.Blocks = append(m.Blocks, ManifestBlock{Node: int(c.u32("block")), Source: int(c.u32("block")),
			Variable: c.name(c.u32("variable name in block"), "variable name in block"), Bytes: int(c.u32("block"))})
	}
	switch {
	case c.short != "":
		return nil, fmt.Errorf("%w: truncated %s", ErrNotManifest, c.short)
	case partial[0] > 1:
		return nil, fmt.Errorf("%w: partial flag %d", ErrNotManifest, partial[0])
	case len(c.rest) > 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrNotManifest, len(c.rest))
	}
	return m, nil
}
