package chunk

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// DefaultHashRate is the dedicated-core chunk+hash throughput in raw
// bytes per second charged on both faces: rolling-hash boundary
// detection plus SHA-256 on one core lands near 1 GB/s, an order of
// magnitude above the flate codec and in the rle/delta band — cheap
// enough that §IV.D spare time absorbs it.
const DefaultHashRate = 1e9

// Options configure the dedup Store.
type Options struct {
	// Params bound the content-defined chunk sizes (zero fields take the
	// package defaults).
	Params Params
	// AssumedNewFraction is the fraction of each simulated write the DES
	// face assumes has not been stored before and must travel to the
	// inner backend — the model's stand-in for the overwrite fraction,
	// the way CodecProfile.AssumedRatio stands in for real compression.
	// Default 1 (no dedup assumed).
	AssumedNewFraction float64
}

func (o Options) withDefaults() Options {
	o.Params = o.Params.withDefaults()
	if o.AssumedNewFraction <= 0 || o.AssumedNewFraction > 1 {
		o.AssumedNewFraction = 1
	}
	return o
}

// chunkEntry is the store's index record for one content-addressed
// chunk: how many live object recipes reference it (one count per
// recipe occurrence) and its raw size.
type chunkEntry struct {
	refs int
	size int
}

// objectEntry is the index record for one stored object: its reference
// count (Put starts it at one; Retain/Release move it) and the chunk
// decomposition manifests embed.
type objectEntry struct {
	refs int
	info storage.ChunkInfo
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

// Store layers content-addressed deduplication over any inner backend —
// the incremental-checkpoint path. It has the same two faces as every
// backend:
//
// Real face: Put splits the payload at content-defined boundaries,
// stores each chunk the inner backend has not seen under its hash
// ("chunk/<hex>"), and writes a small recipe (see recipe.go) under the
// object's own name — so iteration N+1 of a slowly-changing variable
// costs only its changed chunks. Get transparently reassembles recipes
// (and passes plain objects through), verifying every chunk against its
// hash. Objects smaller than twice the minimum chunk size are stored
// raw — chunking them could not dedup anything — but still registered
// for retention, so manifests age out with their data objects.
//
// GC: every stored object starts with one reference; Retain/Release
// move the count and Sweep deletes zero-reference objects, then every
// chunk no live object references. The store's single mutex makes the
// Put-time dedup check atomic with Sweep's collection, so a chunk can
// never be judged "already stored" by a Put while a sweep deletes it.
//
// Cost face: the inner model under storage.Reduce, with desWrite and
// desRead as the layer's two cost functions — a write charges chunk+hash
// CPU on the dedicated core and forwards only the assumed-new fraction
// of the volume (plus recipe overhead); a read forwards the full raw
// volume and charges verify CPU. The ledger grows ChunkHashTime and
// DedupBytesSaved on top of the inner accounting.
//
// Layering: wrap Store outermost (chunk.New(storage.NewCompressing(...)))
// so each chunk and recipe is compressed individually by the inner
// pipeline and dedup operates on raw, stable bytes — compressing first
// would smear a one-byte edit across the whole compressed stream and
// destroy dedup.
type Store struct {
	storage.CostModel
	inner storage.Backend
	opts  Options

	mu      sync.Mutex
	chunks  map[string]*chunkEntry
	objects map[string]*objectEntry

	hashTime     float64
	dedupSaved   float64
	chunksStored int
	chunksDedup  int
	bytesStored  int64
	bytesDedup   int64
	collected    int
	bytesFreed   int64
}

// New wraps inner with the dedup chunk store.
func New(inner storage.Backend, opts Options) *Store {
	s := &Store{
		inner:   inner,
		opts:    opts.withDefaults(),
		chunks:  map[string]*chunkEntry{},
		objects: map[string]*objectEntry{},
	}
	s.CostModel = storage.Reduce(inner, s.desWrite, s.desRead)
	return s
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

// Put implements ObjectStore: chunk, dedup, store new chunks, store the
// recipe. Small payloads pass through raw unless they would collide
// with the recipe magic.
func (s *Store) Put(name string, data []byte) error {
	if len(data) < s.passThreshold() && !IsRecipe(data) {
		if err := s.inner.Put(name, data); err != nil {
			return err
		}
		n := int64(len(data))
		s.mu.Lock()
		s.replaceLocked(name, &objectEntry{refs: 1,
			info: storage.ChunkInfo{RawBytes: n, NewBytes: n}})
		s.mu.Unlock()
		return nil
	}
	pieces := Split(data, s.opts.Params)
	refs := make([]storage.ChunkRef, len(pieces))
	for i, p := range pieces {
		refs[i] = storage.ChunkRef{Hash: Sum(p), Bytes: len(p)}
	}
	recipe, err := EncodeRecipe(refs)
	if err != nil {
		return err
	}
	// The whole dedup-check/store/index transaction runs under the store
	// mutex: a sweep can never collect a chunk between this Put judging
	// it "already stored" and the recipe landing.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hashTime += float64(len(data)) / DefaultHashRate
	var newBytes int64
	for i, p := range pieces {
		h := refs[i].Hash
		if e, ok := s.chunks[h]; ok {
			e.refs++
			s.chunksDedup++
			s.bytesDedup += int64(len(p))
			s.dedupSaved += float64(len(p))
			continue
		}
		if err := s.inner.Put(ChunkObjectName(h), p); err != nil {
			s.unrefLocked(refs[:i])
			return err
		}
		s.chunks[h] = &chunkEntry{refs: 1, size: len(p)}
		s.chunksStored++
		s.bytesStored += int64(len(p))
		newBytes += int64(len(p))
	}
	if err := s.inner.Put(name, recipe); err != nil {
		s.unrefLocked(refs)
		return err
	}
	s.replaceLocked(name, &objectEntry{refs: 1, info: storage.ChunkInfo{
		Chunks:   refs,
		RawBytes: int64(len(data)),
		NewBytes: newBytes,
	}})
	return nil
}

// unrefLocked rolls back the chunk references a failed Put took (newly
// stored chunks drop to zero references and the next sweep reclaims
// them). Callers hold s.mu.
func (s *Store) unrefLocked(refs []storage.ChunkRef) {
	for _, r := range refs {
		if e, ok := s.chunks[r.Hash]; ok {
			e.refs--
		}
	}
}

// replaceLocked installs an object's index entry. Overwriting a name
// drops the old entry's chunk references (its recipe is gone from the
// backend) but keeps its reference count — the object's identity, and
// whatever retention pinned it, survives the overwrite. Callers hold
// s.mu.
func (s *Store) replaceLocked(name string, e *objectEntry) {
	if old, ok := s.objects[name]; ok {
		s.unrefLocked(old.info.Chunks)
		e.refs = old.refs
	}
	s.objects[name] = e
}

// Get implements ObjectReader: recipes are transparently reassembled
// from their chunks — each fetched chunk is verified against its hash —
// and plain objects pass through byte-for-byte. Get is stateless (it
// needs no index entry), so a fresh process can restore a store left by
// an earlier run.
func (s *Store) Get(name string) ([]byte, error) {
	obj, err := s.inner.Get(name)
	if err != nil || !IsRecipe(obj) {
		return obj, err
	}
	refs, rawSize, err := DecodeRecipe(obj)
	if err != nil {
		return nil, fmt.Errorf("chunk: object %q: %w", name, err)
	}
	out := make([]byte, 0, rawSize)
	for i, r := range refs {
		cb, err := s.inner.Get(ChunkObjectName(r.Hash))
		if errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("%w: object %q chunk %d/%d (%s)",
				ErrDanglingChunk, name, i, len(refs), r.Hash)
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: object %q chunk %d/%d: %w", name, i, len(refs), err)
		}
		if len(cb) != r.Bytes || Sum(cb) != r.Hash {
			return nil, fmt.Errorf("%w: object %q chunk %d/%d (%s): stored bytes do not match",
				ErrCorruptRecipe, name, i, len(refs), r.Hash)
		}
		out = append(out, cb...)
	}
	s.mu.Lock()
	s.hashTime += float64(rawSize) / DefaultHashRate
	s.mu.Unlock()
	return out, nil
}

// List implements ObjectReader, hiding the internal chunk namespace:
// callers see the logical objects they stored, not the content-addressed
// pieces behind them.
func (s *Store) List(prefix string) ([]string, error) {
	names, err := s.inner.List(prefix)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if len(n) >= 6 && n[:6] == "chunk/" {
			continue
		}
		out = append(out, n)
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
		refs, rawSize, err := DecodeRecipe(obj)
		if err != nil {
			return fmt.Errorf("chunk: retain %q: %w", name, err)
		}
		for _, r := range refs {
			if c, ok := s.chunks[r.Hash]; ok {
				c.refs++
			} else {
				s.chunks[r.Hash] = &chunkEntry{refs: 1, size: r.Bytes}
			}
		}
		e.info = storage.ChunkInfo{Chunks: refs, RawBytes: rawSize}
	} else {
		e.info = storage.ChunkInfo{RawBytes: int64(len(obj))}
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
// the inner backend and its chunk references dropped; then every chunk
// no live object references is deleted. The sweep holds the store mutex
// end to end, so concurrent Puts either complete before it (their
// references protect their chunks) or start after it — a retained
// object can never lose a chunk.
func (s *Store) Sweep() (SweepStats, error) {
	var stats SweepStats
	del, ok := s.inner.(storage.ObjectDeleter)
	if !ok {
		return stats, fmt.Errorf("chunk: backend %s cannot delete objects", s.inner.Name())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, e := range s.objects {
		if e.refs > 0 {
			continue
		}
		if err := del.Delete(name); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return stats, fmt.Errorf("chunk: sweep %q: %w", name, err)
		}
		s.unrefLocked(e.info.Chunks)
		delete(s.objects, name)
		stats.Objects++
	}
	for h, c := range s.chunks {
		if c.refs > 0 {
			continue
		}
		if err := del.Delete(ChunkObjectName(h)); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return stats, fmt.Errorf("chunk: sweep chunk %s: %w", h, err)
		}
		delete(s.chunks, h)
		stats.Chunks++
		stats.BytesFreed += int64(c.size)
	}
	s.collected += stats.Chunks
	s.bytesFreed += stats.BytesFreed
	return stats, nil
}

// ObjectChunks implements storage.ObjectChunkInfoer for chunked objects
// stored or retained through this process (pass-through objects report
// ok=false, like the codec infoer does).
func (s *Store) ObjectChunks(name string) (storage.ChunkInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[name]
	if !ok || len(e.info.Chunks) == 0 {
		return storage.ChunkInfo{}, false
	}
	return e.info, true
}

// desWrite is the layer's write-side storage.TransferCost: it charges
// chunk+hash CPU and returns the wait time plus the deduplicated
// transfer volume — the assumed-new fraction of the payload, plus one
// recipe entry per average chunk.
func (s *Store) desWrite(bytes float64) (wait, forwarded float64) {
	if bytes <= 0 {
		return 0, bytes
	}
	wait = bytes / DefaultHashRate
	forwarded = bytes*s.opts.AssumedNewFraction +
		bytes/float64(s.opts.Params.Avg)*recipeEntryLen + recipeHeaderLen
	if forwarded > bytes {
		forwarded = bytes // dedup never inflates a fully-new payload
	}
	s.mu.Lock()
	s.hashTime += wait
	s.dedupSaved += bytes - forwarded
	s.mu.Unlock()
	return wait, forwarded
}

// desRead is the read-side storage.TransferCost, desWrite's restore
// mirror: every chunk of the object must travel back regardless of how
// it deduplicated on the way in, so the full raw volume is forwarded and
// the verify CPU charged.
func (s *Store) desRead(bytes float64) (wait, forwarded float64) {
	if bytes <= 0 {
		return 0, bytes
	}
	wait = bytes / DefaultHashRate
	s.mu.Lock()
	s.hashTime += wait
	s.mu.Unlock()
	return wait, bytes
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
	acc.ChunkBytesStored += s.bytesStored
	acc.ChunkBytesDeduped += s.bytesDedup
	acc.ChunksCollected += s.collected
	acc.ChunkBytesFreed += s.bytesFreed
	return acc
}
