package chunk

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/storage"
)

// DefaultHashRate is the dedicated-core chunk+hash throughput in raw
// bytes per second charged on both faces: the DES's paper preset, an
// order of magnitude above the flate codec and in the rle/delta band —
// cheap enough that §IV.D spare time absorbs it. Measured on one core
// of a 2-core Xeon with SHA-NI, the cut runs at about 0.7 GB/s,
// SHA-256 at 0.95 GB/s and both together at 0.4 GB/s. The constant
// keeps the preset's value (it prices des-kraken and both experiment
// goldens) until the DES's rates are measured ones.
const DefaultHashRate = 1e9

// Options configure the dedup Store.
type Options struct {
	// Params bound the content-defined chunk sizes (zero fields take the
	// package defaults).
	Params Params
}

func (o Options) withDefaults() Options {
	o.Params = o.Params.withDefaults()
	return o
}

// chunkEntry is the store's index record for one content-addressed
// chunk: where it is stored and, once this process has stored or
// retained an object referencing it, how many live object recipes do
// (one count per recipe occurrence).
type chunkEntry struct {
	refs int
	// counted marks refs as meaningful. An entry learnt from a pack
	// index alone is a location, never a count, and is never collected.
	counted bool
	size    int
	pack    string // "" until located
	off     int    // offset in pack
}

// dead reports a chunk this process counted down to no reference.
func (c chunkEntry) dead() bool { return c.counted && c.refs <= 0 }

// objectEntry is the index record for one stored object: its reference
// count (Put starts it at one; Retain/Release move it) and its recipe
// entries (nil for a pass-through object).
type objectEntry struct {
	refs int
	ents []entry
}

// SweepStats reports what one GC sweep reclaimed.
type SweepStats struct {
	// Objects is the number of zero-reference recipes/objects deleted.
	Objects int
	// Chunks is the number of unreferenced chunks deleted, BytesFreed
	// their total raw payload.
	Chunks     int
	BytesFreed int64
}

// Store layers content-addressed deduplication over any inner object
// store — the incremental-checkpoint path. Its cost twin is Cost.
//
// PutVec (and Put, its one-segment case) splits the payload at
// content-defined boundaries where it lies in the caller's segments,
// writes the chunks no stored object has yet as one pack with its index
// (see pack.go), and writes a small recipe (see recipe.go) under the
// object's own name — so iteration N+1 of a slowly-changing variable
// costs only its changed chunks, in one inner write. Get transparently
// reassembles recipes (and passes plain objects through), fetching each
// pack a recipe touches once and verifying every chunk against its
// hash. Objects smaller than twice the minimum chunk size are stored
// raw — chunking them could not dedup anything — but still registered
// for retention, so manifests age out with their data objects. A fresh
// process locates chunks by reading the pack indexes it meets a need
// for; it counts only references it stores or retains itself.
//
// GC: every stored object starts with one reference; Retain/Release
// move the count and Sweep deletes zero-reference objects, then
// compacts every pack holding a chunk no live object references. The
// store's single mutex makes the Put-time dedup check atomic with
// Sweep's collection, so a chunk can never be judged "already stored"
// by a Put while a sweep deletes it.
//
// Layering: wrap Store outermost (chunk.New(storage.NewCompressing(...)))
// so the inner pipeline frames each pack, index and recipe, and dedup
// operates on raw, stable bytes — compressing first would smear a
// one-byte edit across the whole compressed stream and destroy dedup.
type Store struct {
	inner storage.Backend
	opts  Options

	mu      sync.Mutex
	chunks  map[digest]chunkEntry
	packs   map[string][]entry // pack name → its index entries
	objects map[string]*objectEntry

	hashTime     float64
	dedupSaved   float64
	chunksStored int
	chunksDedup  int
}

// New wraps inner with the dedup chunk store.
func New(inner storage.Backend, opts Options) *Store {
	return &Store{
		inner:   inner,
		opts:    opts.withDefaults(),
		chunks:  map[digest]chunkEntry{},
		packs:   map[string][]entry{},
		objects: map[string]*objectEntry{},
	}
}

// Stack wraps base with the reduction layers in their one legal order,
// base → Compressing → Store (see "Layering" above): the compression
// pipeline when codec is non-empty (a codec name or
// storage.AdaptiveCodec), the dedup store when dedup is non-nil.
func Stack(base storage.Backend, codec string, dedup *Options) (storage.Backend, error) {
	if codec != "" {
		if err := storage.ValidateCodecName(codec); err != nil {
			return nil, err
		}
		base = storage.NewCompressing(base, storage.CompressionOptions{Codec: codec})
	}
	if dedup != nil {
		base = New(base, *dedup)
	}
	return base, nil
}

// ReadStack is the stack that reads any store, however it was written:
// recipes reassemble, framed objects decode, plain objects pass through
// both layers untouched.
func ReadStack(base storage.Backend) storage.Backend {
	return New(storage.NewCompressing(base, storage.CompressionOptions{}), Options{})
}

// Name implements Backend: the inner name tagged with the dedup layer.
func (s *Store) Name() string { return s.inner.Name() + "+dedup" }

// passThreshold is the size below which chunking cannot dedup anything
// (a single chunk would cover the whole object).
func (s *Store) passThreshold() int { return 2 * s.opts.Params.Min }

// Put implements ObjectStore: PutVec of one segment.
func (s *Store) Put(name string, data []byte) error {
	return s.PutVec(name, [][]byte{data})
}

// PutVec implements ObjectStore: chunk, dedup, store the new chunks as
// one pack, store the recipe. The segment list is chunked
// where it lies (see walk) and each chunk is hashed right after its
// cut; the pack is written as sub-slices of segs, so the payload is
// never flattened. Small payloads pass through raw unless they would
// collide with the recipe magic.
func (s *Store) PutVec(name string, segs [][]byte) error {
	if strings.HasPrefix(name, chunkPrefix) {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	total := storage.SegsLen(segs)
	if total < s.passThreshold() {
		data := storage.FlattenSegs(segs)
		if !IsRecipe(data) {
			if err := s.inner.Put(name, data); err != nil {
				return err
			}
			s.mu.Lock()
			s.replaceLocked(name, &objectEntry{refs: 1})
			s.mu.Unlock()
			return nil
		}
		segs = [][]byte{data}
	}
	ents := make([]entry, 0, total/s.opts.Params.Avg+1)
	walk(segs, s.opts.Params, func(c []byte) {
		ents = append(ents, entry{sum: sha256.Sum256(c), size: len(c)})
	})
	recipe, err := encodeRecipe(ents)
	if err != nil {
		return err
	}
	// The whole dedup-check/store/index transaction runs under the store
	// mutex: a sweep can never collect a chunk between this Put judging
	// it "already stored" and the recipe landing.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hashTime += float64(total) / DefaultHashRate
	// Every chunk the index does not know goes into this Put's pack; it
	// is indexed right away (counted, no reference yet), so a repeat
	// later in the payload is a hit.
	var fresh []entry
	var pack [][]byte
	at := cursor{segs: segs}
	for _, e := range ents {
		if _, ok := s.chunks[e.sum]; ok {
			s.chunksDedup++
			s.dedupSaved += float64(e.size)
			at.skip(e.size)
			continue
		}
		s.chunks[e.sum] = chunkEntry{counted: true, size: e.size}
		fresh = append(fresh, e)
		pack = at.take(e.size, pack)
	}
	if len(fresh) > 0 {
		if err := s.writePackLocked(fresh, pack, ""); err != nil {
			for _, e := range fresh {
				delete(s.chunks, e.sum)
			}
			return err
		}
		s.chunksStored += len(fresh)
	}
	if err := s.inner.Put(name, recipe); err != nil {
		return err // the pack's chunks stay unreferenced: the next sweep reclaims them
	}
	s.replaceLocked(name, &objectEntry{refs: 1, ents: ents})
	return nil
}

// refLocked counts one more reference on each entry's chunk (an
// unknown chunk joins the index unlocated). A located chunk keeps the
// size its pack index gives it. Callers hold s.mu.
func (s *Store) refLocked(ents []entry) {
	for _, e := range ents {
		c := s.chunks[e.sum]
		c.refs++
		c.counted = true
		if c.pack == "" {
			c.size = e.size
		}
		s.chunks[e.sum] = c
	}
}

// unrefLocked drops the chunk references refLocked took. Callers hold
// s.mu.
func (s *Store) unrefLocked(ents []entry) {
	for _, e := range ents {
		if c, ok := s.chunks[e.sum]; ok {
			c.refs--
			s.chunks[e.sum] = c
		}
	}
}

// replaceLocked installs an object's index entry and counts its chunk
// references. Overwriting a name drops the old entry's chunk references
// (its recipe is gone from the backend) but keeps its reference count —
// the object's identity, and whatever retention pinned it, survives the
// overwrite. Callers hold s.mu.
func (s *Store) replaceLocked(name string, e *objectEntry) {
	s.refLocked(e.ents)
	if old, ok := s.objects[name]; ok {
		s.unrefLocked(old.ents)
		e.refs = old.refs
	}
	s.objects[name] = e
}

// chunkLoc is where one recipe entry's bytes are: a pack and an offset.
type chunkLoc struct {
	pack string
	off  int
}

// Get implements ObjectReader: recipes are transparently reassembled
// and plain objects pass through byte-for-byte. Each pack a recipe
// touches is read once, through the inner ReadRanges: the entries that
// are adjacent both in the recipe and in the pack form one range, read
// straight into its place in the output, and every chunk is verified
// against its hash where it landed. No pack byte the object does not
// hold is read. A chunk this process has not located is looked up in
// the pack indexes, so a fresh process can restore a store left by an
// earlier run. A pack that disappears under a concurrent compaction is
// re-resolved once.
func (s *Store) Get(name string) ([]byte, error) {
	obj, err := s.inner.Get(name)
	if err != nil || !IsRecipe(obj) {
		return obj, err
	}
	ents, rawSize, err := decodeRecipe(obj)
	if err != nil {
		return nil, fmt.Errorf("chunk: object %q: %w", name, err)
	}
	locs := make([]chunkLoc, len(ents))
	todo := make([]int, len(ents))
	for i := range todo {
		todo[i] = i
	}
	// Every entry is located, its size checked against its pack index,
	// before the output is allocated: a recipe alone cannot make Get
	// allocate more than the store's indexes vouch for.
	if err := s.locate(name, ents, todo, locs); err != nil {
		return nil, err
	}
	out := make([]byte, rawSize)
	at := make([]int, len(ents)) // where entry i lands in out
	for i := 1; i < len(ents); i++ {
		at[i] = at[i-1] + ents[i-1].size
	}
	var mine []int             // the entries of the pack being read
	var ranges []storage.Range // their runs, each a window of out
	for retry := false; ; retry = true {
		var lost []int // entries whose pack vanished since locate
		for len(todo) > 0 {
			pack := locs[todo[0]].pack
			mine, ranges = mine[:0], ranges[:0]
			rest := todo[:0]
			for _, i := range todo {
				e, l := ents[i], locs[i]
				switch {
				case l.pack != pack:
					rest = append(rest, i)
					continue
				case len(mine) > 0 && mine[len(mine)-1] == i-1 && locs[i-1].off+ents[i-1].size == l.off:
					r := &ranges[len(ranges)-1]
					r.Dst = r.Dst[:len(r.Dst)+e.size] // the run goes on in out and in the pack
				default:
					ranges = append(ranges, storage.Range{Off: int64(l.off), Dst: out[at[i] : at[i]+e.size]})
				}
				mine = append(mine, i)
			}
			todo = rest
			err := s.inner.ReadRanges(pack, ranges)
			switch {
			case errors.Is(err, storage.ErrNotFound):
				lost = append(lost, mine...)
				continue
			case errors.Is(err, storage.ErrOutOfRange):
				return nil, fmt.Errorf("%w: object %q pack %s is shorter than its index: %v",
					ErrCorruptRecipe, name, pack, err)
			case err != nil:
				return nil, fmt.Errorf("chunk: object %q pack %s: %w", name, pack, err)
			}
			for _, i := range mine {
				if e := ents[i]; sha256.Sum256(out[at[i]:at[i]+e.size]) != e.sum {
					return nil, fmt.Errorf("%w: object %q chunk %d/%d (%x): stored bytes do not match",
						ErrCorruptRecipe, name, i, len(ents), e.sum)
				}
			}
		}
		if len(lost) == 0 {
			break
		}
		if retry {
			i := lost[0]
			return nil, fmt.Errorf("%w: object %q chunk %d/%d (%x): pack %s is gone",
				ErrDanglingChunk, name, i, len(ents), ents[i].sum, locs[i].pack)
		}
		slices.Sort(lost) // back in recipe order, so runs join again
		todo = lost
		if err := s.locate(name, ents, todo, locs); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.hashTime += float64(rawSize) / DefaultHashRate
	s.mu.Unlock()
	return out, nil
}

// locate fills locs for the entries in todo from the chunk index,
// loading the pack indexes once if some chunk is not located yet. An
// entry whose size disagrees with its chunk's pack index entry is
// ErrCorruptRecipe.
func (s *Store) locate(name string, ents []entry, todo []int, locs []chunkLoc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	loaded := false
	for _, i := range todo {
		c := s.chunks[ents[i].sum]
		if c.pack == "" && !loaded {
			if err := s.loadIndexesLocked(); err != nil {
				return fmt.Errorf("chunk: object %q: loading pack indexes: %w", name, err)
			}
			loaded = true
			c = s.chunks[ents[i].sum]
		}
		if c.pack == "" {
			return fmt.Errorf("%w: object %q chunk %d/%d (%x)",
				ErrDanglingChunk, name, i, len(ents), ents[i].sum)
		}
		if c.size != ents[i].size {
			return fmt.Errorf("%w: object %q chunk %d/%d (%x): %d bytes, its pack index says %d",
				ErrCorruptRecipe, name, i, len(ents), ents[i].sum, ents[i].size, c.size)
		}
		locs[i] = chunkLoc{c.pack, c.off}
	}
	return nil
}

// ReadRanges implements Backend: Get, then a copy of the ranges (chunks
// are verified whole, so the object is rebuilt whole).
func (s *Store) ReadRanges(name string, rs []storage.Range) error {
	obj, err := s.Get(name)
	if err != nil {
		return err
	}
	return storage.CopyRanges(name, obj, rs)
}

// Delete implements Backend: the object leaves the inner store and the
// index, and the chunks only it held become collectable by the next
// Sweep.
func (s *Store) Delete(name string) error {
	if strings.HasPrefix(name, chunkPrefix) {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.inner.Delete(name); err != nil {
		return err
	}
	if e, ok := s.objects[name]; ok {
		s.unrefLocked(e.ents)
		delete(s.objects, name)
	}
	return nil
}

// List implements ObjectReader, hiding the internal chunk namespace:
// callers see the logical objects they stored, not the packs behind
// them.
func (s *Store) List(prefix string) ([]string, error) {
	names, err := s.inner.List(prefix)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if !strings.HasPrefix(n, chunkPrefix) {
			out = append(out, n)
		}
	}
	return out, nil
}

// Retain implements storage.Retainer: one more reference on a stored
// object. An object this process has not indexed (stored by an earlier
// run) is loaded from the backend — its recipe's chunks join the index
// as referenced, so a later sweep protects them.
func (s *Store) Retain(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.objects[name]; ok {
		e.refs++
		return nil
	}
	obj, err := s.inner.Get(name)
	if err != nil {
		return fmt.Errorf("chunk: retain %q: %w", name, err)
	}
	e := &objectEntry{refs: 1}
	if IsRecipe(obj) {
		if e.ents, _, err = decodeRecipe(obj); err != nil {
			return fmt.Errorf("chunk: retain %q: %w", name, err)
		}
		s.refLocked(e.ents)
	}
	s.objects[name] = e
	return nil
}

// Release implements storage.Retainer: drop one reference. Nothing is
// deleted here — a zero-reference object stays resurrectable (Retain it
// back) until the next Sweep actually collects it.
func (s *Store) Release(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[name]
	if !ok {
		return fmt.Errorf("chunk: release of untracked object %q", name)
	}
	e.refs--
	return nil
}

// Sweep collects garbage: every zero-reference object is deleted from
// the inner backend and its chunk references dropped; then every pack
// holding a chunk no live object references is compacted (deleted when
// nothing in it survives), so no unreferenced chunk's bytes remain.
// Chunks this process never counted — located from a pack index, or
// referenced only by objects it never retained — are kept. The sweep
// holds the store mutex end to end, so concurrent Puts either complete
// before it (their references protect their chunks) or start after it
// — a retained object can never lose a chunk.
func (s *Store) Sweep() (SweepStats, error) {
	var stats SweepStats
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, e := range s.objects {
		if e.refs > 0 {
			continue
		}
		if err := s.inner.Delete(name); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return stats, fmt.Errorf("chunk: sweep %q: %w", name, err)
		}
		s.unrefLocked(e.ents)
		delete(s.objects, name)
		stats.Objects++
	}
	// A dead chunk retained from an earlier run's recipe may sit in a
	// pack this process has not seen yet.
	for _, c := range s.chunks {
		if c.dead() && c.pack == "" {
			if err := s.loadIndexesLocked(); err != nil {
				return stats, fmt.Errorf("chunk: sweep: loading pack indexes: %w", err)
			}
			break
		}
	}
	packs := make([]string, 0, len(s.packs))
	for p := range s.packs {
		packs = append(packs, p)
	}
	for _, p := range packs {
		if err := s.compactLocked(p); err != nil {
			return stats, fmt.Errorf("chunk: sweep pack %s: %w", p, err)
		}
	}
	for h, c := range s.chunks {
		if c.dead() {
			delete(s.chunks, h)
			stats.Chunks++
			stats.BytesFreed += int64(c.size)
		}
	}
	return stats, nil
}

// Accounting implements Backend: the inner ledger plus the dedup
// counters.
func (s *Store) Accounting() storage.Accounting {
	acc := s.inner.Accounting()
	s.mu.Lock()
	defer s.mu.Unlock()
	acc.ChunkHashTime += s.hashTime
	acc.DedupBytesSaved += s.dedupSaved
	acc.ChunksStored += s.chunksStored
	acc.ChunksDeduped += s.chunksDedup
	return acc
}
