package chunk

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"repro/internal/storage"
)

// The chunk namespace on the inner backend holds packs and their
// indexes, nothing else:
//
//	chunk/<id>.pack  the chunks one Put found new, concatenated in
//	                 payload order
//	chunk/<id>.idx   the pack's index: the recipe of the pack (see
//	                 recipe.go) — its chunks' hashes and sizes in pack
//	                 order, offsets implied by the sizes
//
// <id> is the first half of the index's SHA-256, so a pack's name
// follows from its contents and two processes that write the same
// chunks write the same pack. The pack is written before its index and
// the index before any recipe that references the pack; a pack is
// deleted only after its index.

// chunkPrefix is the chunk namespace: List hides it from callers.
const chunkPrefix = "chunk/"

const (
	packSuffix  = ".pack"
	indexSuffix = ".idx"
)

// packName derives a pack's object name from its encoded index.
func packName(index []byte) string {
	id := sha256.Sum256(index)
	return chunkPrefix + hex.EncodeToString(id[:sha256.Size/2]) + packSuffix
}

// indexName is the object name of a pack's index, packOf its inverse.
func indexName(pack string) string {
	return strings.TrimSuffix(pack, packSuffix) + indexSuffix
}

func packOf(index string) string {
	return strings.TrimSuffix(index, indexSuffix) + packSuffix
}

// indexNames lists the name of every pack index on r.
func indexNames(r storage.ObjectReader) ([]string, error) {
	names, err := r.List(chunkPrefix)
	if err != nil {
		return nil, err
	}
	indexes := names[:0]
	for _, n := range names {
		if strings.HasSuffix(n, indexSuffix) {
			indexes = append(indexes, n)
		}
	}
	return indexes, nil
}

// Packs summarizes the chunk namespace of a store, however it was
// written (see ReadStack), from its pack indexes alone: how many packs,
// how many chunks they hold and the chunks' raw bytes. No pack is read.
func Packs(base storage.Backend) (packs, chunks int, bytes int64, err error) {
	r := storage.NewCompressing(base, storage.CompressionOptions{})
	indexes, err := indexNames(r)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, n := range indexes {
		obj, err := r.Get(n)
		if err != nil {
			return 0, 0, 0, err
		}
		ents, raw, err := decodeRecipe(obj)
		if err != nil {
			return 0, 0, 0, err
		}
		packs++
		chunks += len(ents)
		bytes += raw
	}
	return packs, chunks, bytes, nil
}

// writePackLocked stores ents (whose bytes are segs) as one pack plus
// its index and records their locations; entries that pointed into the
// pack from — the one being compacted, or "" — move to the new one.
// Callers hold s.mu.
func (s *Store) writePackLocked(ents []entry, segs [][]byte, from string) error {
	index, err := encodeRecipe(ents)
	if err != nil {
		return err
	}
	pack := packName(index)
	if err := storage.PutVec(s.inner, pack, segs); err != nil {
		return err
	}
	if err := s.inner.Put(indexName(pack), index); err != nil {
		// An index-less pack is invisible to every reader: drop it.
		if del, ok := s.inner.(storage.ObjectDeleter); ok {
			_ = del.Delete(pack)
		}
		return err
	}
	s.addPackLocked(pack, ents, from)
	return nil
}

// addPackLocked records a pack's chunks: the pack's entry list, and the
// location of every chunk the index has not located yet (or located in
// pack from). Counts are untouched — an index says where a chunk is,
// never who references it. Callers hold s.mu.
func (s *Store) addPackLocked(pack string, ents []entry, from string) {
	s.packs[pack] = ents
	off := 0
	for _, e := range ents {
		if c := s.chunks[e.sum]; c.pack == "" || c.pack == from {
			c.size, c.pack, c.off = e.size, pack, off
			s.chunks[e.sum] = c
		}
		off += e.size
	}
}

// loadIndexesLocked locates the chunks of every pack this process has
// not seen: one List of the chunk namespace, then one Get per unseen
// index. A damaged index is skipped — its chunks stay unlocated and
// surface as ErrDanglingChunk. Callers hold s.mu.
func (s *Store) loadIndexesLocked() error {
	indexes, err := indexNames(s.inner)
	if err != nil {
		return err
	}
	for _, index := range indexes {
		pack := packOf(index)
		if _, seen := s.packs[pack]; seen {
			continue
		}
		obj, err := s.inner.Get(index)
		if errors.Is(err, storage.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if ents, _, err := decodeRecipe(obj); err == nil {
			s.addPackLocked(pack, ents, "")
		}
	}
	return nil
}

// compactLocked rewrites one pack without its dead chunks: the live and
// untracked ones are copied into a new pack + index first, then the
// old pair is deleted (the whole pair when nothing survives). Callers
// hold s.mu.
func (s *Store) compactLocked(del storage.ObjectDeleter, pack string) error {
	ents := s.packs[pack]
	var keep []entry
	var from []int // keep[i]'s offset in the old pack
	size := 0
	for _, e := range ents {
		if !s.chunks[e.sum].dead() {
			keep = append(keep, e)
			from = append(from, size)
		}
		size += e.size
	}
	if len(keep) == len(ents) {
		return nil
	}
	if len(keep) > 0 {
		data, err := s.inner.Get(pack)
		switch {
		case errors.Is(err, storage.ErrNotFound):
			keep = nil // deleted behind the store's back: nothing left to copy
		case err != nil:
			return err
		case len(data) != size:
			return fmt.Errorf("%w: pack %s holds %d bytes, its index %d", ErrCorruptRecipe, pack, len(data), size)
		}
		if len(keep) > 0 {
			segs := make([][]byte, len(keep))
			for i, e := range keep {
				segs[i] = data[from[i] : from[i]+e.size]
			}
			if err := s.writePackLocked(keep, segs, pack); err != nil {
				return err
			}
		}
	}
	for _, name := range []string{indexName(pack), pack} {
		if err := del.Delete(name); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
	}
	delete(s.packs, pack)
	for _, e := range ents {
		if c, ok := s.chunks[e.sum]; ok && c.pack == pack {
			c.pack = "" // lost with the pack
			s.chunks[e.sum] = c
		}
	}
	return nil
}
