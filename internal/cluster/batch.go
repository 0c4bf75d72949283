package cluster

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/shm"
)

// Block is one variable block as it travels up the aggregation tree:
// the payload plus enough identity to reassemble the global view.
type Block struct {
	Node     int    // node the block originated on
	Source   int    // simulation core within that node
	Variable string // variable name
	// Data is the payload. On the forwarding path it aliases the origin
	// node's shared-memory segment until the batch is freed; DecodeBatch
	// aliases the object.
	Data  []byte
	owner *shm.Block // the segment block Data aliases; nil when not in shm
}

// Batch is the unit forwarded between dedicated cores: every block of
// one iteration produced by a subtree.
type Batch struct {
	Iteration int
	Blocks    []Block
}

// Bytes returns the total payload size of the batch.
func (b *Batch) Bytes() int {
	n := 0
	for _, blk := range b.Blocks {
		n += len(blk.Data)
	}
	return n
}

// normalize sorts blocks by (node, source, variable) so encoded batches
// are identical regardless of arrival order. A batch already in order —
// every one the root stored, by the time an encoder or a restore sees
// it — costs one pass.
func (b *Batch) normalize() {
	if !slices.IsSortedFunc(b.Blocks, compareBlocks) {
		slices.SortFunc(b.Blocks, compareBlocks)
	}
}

// manifestBlock is the block's manifest entry: its identity and size.
func (blk *Block) manifestBlock() ManifestBlock {
	return ManifestBlock{Node: blk.Node, Source: blk.Source, Variable: blk.Variable, Bytes: len(blk.Data)}
}

func compareBlocks(x, y Block) int {
	if x.Node != y.Node {
		return cmp.Compare(x.Node, y.Node)
	}
	if x.Source != y.Source {
		return cmp.Compare(x.Source, y.Source)
	}
	return strings.Compare(x.Variable, y.Variable)
}

var batchMagic = []byte("DMB1")

// FreeBlocks returns every block to the shared-memory segment it
// aliases and clears the batch: the batch's end of life on the
// forwarding path. The root calls it once its data and manifest Puts
// returned, and every path that drops a batch calls it instead.
func (b *Batch) FreeBlocks() {
	for _, blk := range b.Blocks {
		if blk.owner != nil {
			blk.owner.Free()
		}
	}
	clear(b.Blocks)
	b.Blocks = nil
}

// EncodeBatchVec serializes a batch as a scatter-gather segment list:
// the concatenation of the returned segments is byte-identical to
// EncodeBatch, but block payloads are aliased, not copied — the
// segments reference each Block's Data directly, and only the small
// framing headers are newly written (into one shared header buffer).
// Leaf→interior→root batching and the storage write path move headers
// this way, never payload bytes.
//
// The segments alias both the batch's payloads and an internal header
// buffer, so they are valid only until the batch is mutated or
// released; hand them to a store's PutVec (or flatten) before either.
func EncodeBatchVec(b *Batch) [][]byte {
	b.normalize()
	// One contiguous header arena keeps the per-block header segments
	// from costing an allocation each; slices of it are handed out
	// below. +1 segment for the leading magic/iteration/count header.
	headerLen := len(batchMagic) + 8
	for _, blk := range b.Blocks {
		headerLen += 12 + len(blk.Variable) + 4
	}
	arena := make([]byte, 0, headerLen)
	segs := make([][]byte, 0, 1+2*len(b.Blocks))

	arena = appendU32(append(arena, batchMagic...), b.Iteration, len(b.Blocks))
	segs = append(segs, arena)
	mark := len(arena)
	for i := range b.Blocks {
		blk := &b.Blocks[i]
		arena = appendU32(appendStr(appendU32(arena, blk.Node, blk.Source), blk.Variable), len(blk.Data))
		segs = append(segs, arena[mark:len(arena):len(arena)], blk.Data)
		mark = len(arena)
	}
	return segs
}

// EncodeBatch serializes a batch into the flat object format the tree
// roots hand to the storage backend. Blocks are normalized first, so
// equal batches encode to equal bytes. It is the flattened form of
// EncodeBatchVec — callers on the hot path should prefer the vector
// form, which does not copy payloads.
func EncodeBatch(b *Batch) []byte {
	return bytes.Join(EncodeBatchVec(b), nil)
}

// DecodeBatch parses an object produced by EncodeBatch. Block payloads
// alias data instead of copying it: each is capped at its own length,
// so an append to one block reallocates rather than overwrite the next,
// but the batch is valid only while data is, and data must not change
// while the batch is in use.
func DecodeBatch(data []byte) (*Batch, error) {
	if !bytes.HasPrefix(data, batchMagic) {
		return nil, fmt.Errorf("cluster: not a batch object")
	}
	c := cursor{rest: data[len(batchMagic):]}
	it, n := c.u32("batch header"), c.u32("batch header")
	if c.short != "" {
		return nil, fmt.Errorf("cluster: truncated %s", c.short)
	}
	// A block takes at least 16 bytes, which bounds what a corrupt count
	// can pre-allocate.
	b := &Batch{Iteration: int(it), Blocks: make([]Block, 0, c.room(n, 16))}
	for i := uint32(0); i < n; i++ {
		node, src := c.u32("block"), c.u32("block")
		name := c.take(c.u32("block"), "variable name in block")
		payload := c.take(c.u32("block"), "payload in block")
		if c.short != "" {
			return nil, fmt.Errorf("cluster: truncated %s %d", c.short, i)
		}
		b.Blocks = append(b.Blocks, Block{Node: int(node), Source: int(src), Variable: string(name), Data: payload})
	}
	return b, nil
}

// cursor reads a batch or manifest object front to back. The first
// read past the end records in short what it was reading; it and every
// later read yield nil.
type cursor struct {
	rest  []byte
	short string
}

// take returns the next n bytes, capped at n.
func (c *cursor) take(n uint32, what string) []byte {
	if c.short == "" && uint64(n) > uint64(len(c.rest)) {
		c.short = what
	}
	if c.short != "" {
		return nil
	}
	s := c.rest[:n:n]
	c.rest = c.rest[n:]
	return s
}

func (c *cursor) u32(what string) uint32 {
	if s := c.take(4, what); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// str reads a u32-length-prefixed string.
func (c *cursor) str(what string) string { return string(c.take(c.u32(what), what)) }

// room caps a decoded count at what the unread bytes can hold.
func (c *cursor) room(n uint32, size int) int { return int(min(uint64(n), uint64(len(c.rest)/size))) }

// appendU32 appends each value as a little-endian u32.
func appendU32(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// appendStr appends a u32-length-prefixed string.
func appendStr(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }
