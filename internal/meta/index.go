package meta

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync"
)

// BlockRef is one indexed block: its identity plus an opaque handle to
// the data (in practice a *shm.Block, kept opaque to avoid a dependency
// from the description layer onto the memory layer).
type BlockRef struct {
	Key  BlockKey
	Size int
	Data interface{}
}

// Index is the thread-safe metadata structure through which dedicated
// cores search for the blocks written by simulation cores (§III.B: "all
// data blocks are indexed in a metadata structure"). Blocks are bucketed
// by iteration, so a per-iteration query touches one bucket.
type Index struct {
	mu    sync.RWMutex
	its   map[int]map[BlockKey]BlockRef
	spare []map[BlockKey]BlockRef // emptied buckets for new iterations; never more than were live at once
	n     int
}

// NewIndex creates an empty block index.
func NewIndex() *Index {
	return &Index{its: make(map[int]map[BlockKey]BlockRef)}
}

// Put registers a block. A block with the same key replaces the previous
// one and the old ref is returned so the caller can release its storage.
func (ix *Index) Put(ref BlockRef) (old BlockRef, replaced bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bucket := ix.its[ref.Key.Iteration]
	if bucket == nil {
		if n := len(ix.spare); n > 0 {
			bucket, ix.spare = ix.spare[n-1], ix.spare[:n-1]
		} else {
			bucket = make(map[BlockKey]BlockRef)
		}
		ix.its[ref.Key.Iteration] = bucket
	}
	old, replaced = bucket[ref.Key]
	bucket[ref.Key] = ref
	if !replaced {
		ix.n++
	}
	return old, replaced
}

// Get returns the block with the given key.
func (ix *Index) Get(key BlockKey) (BlockRef, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ref, ok := ix.its[key.Iteration][key]
	return ref, ok
}

// Len returns the number of indexed blocks.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.n
}

// Iteration returns every block of the given iteration, sorted by
// (variable, source) for deterministic consumption.
func (ix *Index) Iteration(it int) []BlockRef {
	return ix.collect(it, func(BlockKey) bool { return true })
}

// Variable returns every block of one variable at one iteration, sorted
// by source.
func (ix *Index) Variable(name string, it int) []BlockRef {
	return ix.collect(it, func(k BlockKey) bool { return k.Variable == name })
}

// collect returns iteration it's blocks that keep accepts, sorted by
// (variable, source).
func (ix *Index) collect(it int, keep func(BlockKey) bool) []BlockRef {
	ix.mu.RLock()
	bucket := ix.its[it]
	out := make([]BlockRef, 0, len(bucket))
	for k, ref := range bucket {
		if keep(k) {
			out = append(out, ref)
		}
	}
	ix.mu.RUnlock()
	slices.SortFunc(out, func(a, b BlockRef) int {
		return cmp.Or(strings.Compare(a.Key.Variable, b.Key.Variable), cmp.Compare(a.Key.Source, b.Key.Source))
	})
	return out
}

// RemoveIteration removes and returns all blocks of an iteration,
// unsorted. Whoever removes them owns their data: a plugin that takes
// the iteration, or the node's garbage-collection step, which frees
// what no plugin took.
func (ix *Index) RemoveIteration(it int) []BlockRef {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bucket := ix.its[it]
	delete(ix.its, it)
	ix.n -= len(bucket)
	out := slices.AppendSeq(make([]BlockRef, 0, len(bucket)), maps.Values(bucket))
	if bucket != nil {
		clear(bucket)
		ix.spare = append(ix.spare, bucket)
	}
	return out
}

// RemoveAll removes and returns every block left, unsorted: what a
// node frees of the iterations that never completed when it shuts down.
func (ix *Index) RemoveAll() (out []BlockRef) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, bucket := range ix.its {
		out = slices.AppendSeq(out, maps.Values(bucket))
	}
	clear(ix.its)
	ix.n = 0
	return out
}
