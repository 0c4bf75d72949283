package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// The chunk recipe is the self-describing envelope the dedup store
// writes under an object's own name once the payload has been split
// into content-addressed chunks:
//
//	offset 0  magic "DCK1" (4 bytes)
//	offset 4  chunk count, uint32 little-endian
//	offset 8  total raw payload size, uint32 little-endian
//	offset 12 count × entry: raw SHA-256 hash (32 bytes)
//	                       + chunk raw size, uint32 little-endian
//
// Like the compression frame, the recipe carries everything Get needs
// to reassemble the object, so a store can be read back by a process
// that knows nothing about how it was written. Objects written without
// the dedup store (no magic) pass through untouched. A pack's index
// (see pack.go) is the same envelope: the recipe of the pack.

// recipeMagic marks (and versions) the chunk-recipe envelope.
var recipeMagic = []byte("DCK1")

// recipeEntryLen is the per-chunk entry size: raw hash + size field.
const recipeEntryLen = sha256.Size + 4

// recipeHeaderLen is the fixed envelope prefix: magic + count + raw size.
const recipeHeaderLen = 4 + 4 + 4

// ErrNotChunked is returned when an object does not start with the
// recipe magic: it was stored without the dedup store. Callers should
// test with errors.Is and use the bytes as they are.
var ErrNotChunked = errors.New("chunk: object not a chunk recipe")

// ErrCorruptRecipe is returned for an object that carries the recipe
// magic but cannot be decoded: truncated header or chunk list, a chunk
// count the payload cannot hold, sizes that do not sum to the declared
// raw size, or a fetched chunk whose bytes hash to something other than
// its recipe entry. Restore paths report it the same way they report
// missing objects: the object is known but not recoverable.
var ErrCorruptRecipe = errors.New("chunk: corrupt chunk recipe")

// ErrDanglingChunk is returned by Get when a recipe references a chunk
// the inner backend no longer stores — the dedup invariant (every
// recipe's chunks outlive it) was broken, e.g. by an external delete or
// a sweep racing a foreign process.
var ErrDanglingChunk = errors.New("chunk: recipe references a missing chunk")

// ErrReservedName is returned by a Put or Delete of a caller's name
// inside the chunk namespace, which holds the store's packs and indexes.
var ErrReservedName = errors.New("chunk: name inside the chunk namespace")

// digest is a chunk's raw SHA-256, the form the store indexes it by.
type digest [sha256.Size]byte

// entry is one recipe (or pack index) line: a chunk's digest and raw
// size, in payload (or pack) order.
type entry struct {
	sum  digest
	size int
}

// IsRecipe reports whether an object starts with the recipe magic.
func IsRecipe(obj []byte) bool {
	return len(obj) >= len(recipeMagic) && string(obj[:len(recipeMagic)]) == string(recipeMagic)
}

// encodeRecipe serializes an entry list into a recipe object.
func encodeRecipe(ents []entry) ([]byte, error) {
	var total int64
	for _, e := range ents {
		total += int64(e.size)
	}
	if total > int64(^uint32(0)) {
		return nil, fmt.Errorf("chunk: %d-byte payload exceeds the 4 GiB recipe limit", total)
	}
	out := make([]byte, 0, recipeHeaderLen+len(ents)*recipeEntryLen)
	out = append(out, recipeMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ents)))
	out = binary.LittleEndian.AppendUint32(out, uint32(total))
	for _, e := range ents {
		out = append(out, e.sum[:]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(e.size))
	}
	return out, nil
}

// decodeRecipe parses a recipe object back into its entry list and
// declared raw size. Objects without the magic return ErrNotChunked;
// anything structurally damaged returns ErrCorruptRecipe. The
// chunk-count field is validated against the object's actual length
// before any allocation, so a corrupt count cannot drive a giant
// allocation.
func decodeRecipe(obj []byte) ([]entry, int64, error) {
	if !IsRecipe(obj) {
		return nil, 0, fmt.Errorf("%w (%d bytes)", ErrNotChunked, len(obj))
	}
	rest := obj[len(recipeMagic):]
	if len(rest) < 8 {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorruptRecipe)
	}
	count := int(binary.LittleEndian.Uint32(rest))
	rawSize := int64(binary.LittleEndian.Uint32(rest[4:]))
	rest = rest[8:]
	if count < 0 || len(rest) != count*recipeEntryLen {
		return nil, 0, fmt.Errorf("%w: %d entries declared, %d bytes of entries held",
			ErrCorruptRecipe, count, len(rest))
	}
	ents := make([]entry, count)
	var sum int64
	for i := range ents {
		e := rest[i*recipeEntryLen:]
		size := int(binary.LittleEndian.Uint32(e[sha256.Size:recipeEntryLen]))
		if size <= 0 {
			return nil, 0, fmt.Errorf("%w: entry %d has size %d", ErrCorruptRecipe, i, size)
		}
		ents[i] = entry{sum: digest(e[:sha256.Size]), size: size}
		sum += int64(size)
	}
	if sum != rawSize {
		return nil, 0, fmt.Errorf("%w: entries sum to %d bytes, header says %d",
			ErrCorruptRecipe, sum, rawSize)
	}
	return ents, rawSize, nil
}

// DecodeRecipe parses a recipe object into its chunk count and declared
// raw size, with decodeRecipe's errors.
func DecodeRecipe(obj []byte) (chunks int, rawSize int64, err error) {
	ents, rawSize, err := decodeRecipe(obj)
	return len(ents), rawSize, err
}
