package storage

import (
	"fmt"
	"regexp"
	"slices"
	"sync"

	"repro/internal/compress"
)

// AdaptiveCodec selects the per-dataset adaptive codec choice instead
// of a fixed codec.
const AdaptiveCodec = "adaptive"

// DefaultCPUCostWeight is the spare-time discount on codec CPU in the
// selection score: E4 measures the dedicated cores ≥75% idle, so a
// codec second displaces roughly a quarter of a transfer second.
const DefaultCPUCostWeight = 0.25

// CodecProfile prices one codec for the cost model: how fast a
// dedicated core runs it and, for the DES face where no real bytes
// exist to measure, what compression ratio to assume.
type CodecProfile struct {
	// EncodeRate and DecodeRate are dedicated-core codec throughputs in
	// raw bytes per second (0 = free, used by "none").
	EncodeRate float64
	DecodeRate float64
	// AssumedRatio is the raw/encoded ratio the DES cost face charges
	// when only simulated byte counts flow.
	AssumedRatio float64
}

// defaultProfiles price the registered codecs. Rates are in the range
// the paper's §IV.D setup implies (a few hundred MB/s of codec work on
// one dedicated core, the E5 default being 400 MB/s); assumed ratios
// follow the measured shape — Gorilla reaches the §IV.D 600% on smooth
// float fields, DEFLATE trades much more CPU for a middling ratio on
// binary data, RLE and delta are cheap but narrow.
var defaultProfiles = map[string]CodecProfile{
	"none":    {EncodeRate: 0, DecodeRate: 0, AssumedRatio: 1},
	"rle":     {EncodeRate: 2e9, DecodeRate: 4e9, AssumedRatio: 3},
	"delta":   {EncodeRate: 1.2e9, DecodeRate: 1.5e9, AssumedRatio: 2.5},
	"gorilla": {EncodeRate: 800e6, DecodeRate: 1e9, AssumedRatio: 6},
	"flate":   {EncodeRate: 120e6, DecodeRate: 400e6, AssumedRatio: 4},
}

// Profile returns the cost profile of a registered codec.
func Profile(codec string) (CodecProfile, bool) {
	p, ok := defaultProfiles[codec]
	return p, ok
}

// CompressionOptions configure the Compressing wrapper.
type CompressionOptions struct {
	// Codec is a fixed codec name, or AdaptiveCodec (also the ""
	// default) for the per-dataset selector.
	Codec string
	// SampleBytes bounds the trial-encode sample per dataset (default
	// 64 KiB).
	SampleBytes int
	// TransferBandwidth (bytes/s) converts codec CPU seconds into
	// transfer-byte equivalents for the ratio×cost score: a codec is
	// worth choosing when the bytes it saves outweigh the transfer-time
	// equivalent of its CPU. Default defaultTransferBandwidth.
	TransferBandwidth float64
}

// defaultTransferBandwidth is the selector's default transfer bandwidth,
// 200 MB/s: the per-stream share a dedicated core typically sees of the
// modeled OST array.
const defaultTransferBandwidth = 200e6

var iterationPart = regexp.MustCompile(`-it\d+`)

// datasetKey maps an object name to the dataset the selector caches its
// choice under: the per-iteration part of cluster object names is
// stripped, so "job-root000-it000042" and "-it000043" share a choice.
func datasetKey(name string) string {
	return iterationPart.ReplaceAllString(name, "")
}

func (o CompressionOptions) withDefaults() CompressionOptions {
	if o.Codec == "" {
		o.Codec = AdaptiveCodec
	}
	if o.SampleBytes <= 0 {
		o.SampleBytes = 64 << 10
	}
	if o.TransferBandwidth <= 0 {
		o.TransferBandwidth = defaultTransferBandwidth
	}
	return o
}

// elemSizeFor resolves the element width handed to element-structured
// codecs for one payload: 8 when its length is a multiple of 8, else
// 4, else 1.
func elemSizeFor(n int) int {
	switch {
	case n%8 == 0:
		return 8
	case n%4 == 0:
		return 4
	default:
		return 1
	}
}

// Compressing runs the internal/compress codecs on an inner object
// store — the §IV.D pipeline on the real data path. Put trial-encodes a
// sample per dataset, picks the codec minimizing ratio×cost (bytes
// moved plus the transfer-equivalent of the codec CPU), caches the
// choice per dataset, and stores the object framed (see frame.go); Get
// transparently decodes framed objects and passes unframed ones
// through, so compressed and plain stores read the same way. The
// ledger grows Encode/DecodeTime and the framed-object counters on top
// of the inner accounting. Its cost twin is CodecCost.
type Compressing struct {
	inner Backend
	opts  CompressionOptions

	mu     sync.Mutex
	choice map[string]string // dataset key → cached codec choice

	encodeTime float64
	decodeTime float64
	objects    int
	rawBytes   int64
	encBytes   int64
}

// NewCompressing wraps inner with the compression pipeline.
func NewCompressing(inner Backend, opts CompressionOptions) *Compressing {
	return &Compressing{
		inner:  inner,
		opts:   opts.withDefaults(),
		choice: map[string]string{},
	}
}

// Name implements Backend: the inner name tagged with the codec mode.
func (c *Compressing) Name() string {
	return c.inner.Name() + "+" + c.opts.Codec
}

// score is the selector's objective for one candidate on a sample:
// encoded bytes moved plus the transfer-byte equivalent of the encode
// CPU at bandwidth bw, discounted by the spare-time weight. Lower is
// better; "none" scores exactly the raw size.
func score(codec string, encLen int, rawLen, bw float64) float64 {
	var cpu float64
	charge(&cpu, defaultProfiles[codec].EncodeRate, rawLen)
	return float64(encLen) + cpu*bw*DefaultCPUCostWeight
}

// standaloneBytes is the segment size from which a segment of a
// scatter-gather write becomes its own frame part: DEFLATE's window, so
// a part that large loses nothing by being encoded alone.
const standaloneBytes = 32 << 10

// partsOf groups a segment list into the parts the frame encodes one by
// one, as sub-lists of segs: a segment of standaloneBytes or more is a
// part as it stands, each run of smaller segments is one part. A root
// object of large blocks thus becomes [headers][block][header][block]…
// with every block element-aligned at offset 0 of its part, and an
// object of tiny blocks is one part — the whole object.
func partsOf(segs [][]byte) [][][]byte {
	parts := make([][][]byte, 0, len(segs))
	for i := 0; i < len(segs); {
		j := i + 1
		if len(segs[i]) < standaloneBytes {
			for j < len(segs) && len(segs[j]) < standaloneBytes {
				j++
			}
		}
		parts = append(parts, segs[i:j])
		i = j
	}
	return parts
}

// contiguous returns a part's bytes in one slice: the segment itself
// when there is only one, a gathered copy of a run of small ones.
func contiguous(part [][]byte) []byte {
	if len(part) == 1 {
		return part[0]
	}
	return FlattenSegs(part)
}

// chooseFor resolves the codec name for one object: the configured one,
// or in adaptive mode the dataset's cached choice, made on first sight.
// The trial sample is a prefix of the first stand-alone part — a block
// payload, not the headers in front of it — or of the only part when
// the object has none. Only the codec is cached; the element width is re-derived per
// part, because later objects of the same dataset can have different
// sizes (a partial batch after a failure shrinks the root object). The
// trial encodes run outside c.mu, so a dataset's first Put does not
// stall the other writers of the store; when two race, the first to
// insert wins and a dataset still has exactly one choice.
func (c *Compressing) chooseFor(name string, parts [][][]byte) string {
	if c.opts.Codec != AdaptiveCodec {
		return c.opts.Codec
	}
	key := datasetKey(name)
	c.mu.Lock()
	chosen, ok := c.choice[key]
	c.mu.Unlock()
	if ok {
		return chosen
	}
	var sample []byte
	if len(parts) > 0 {
		standalone := func(p [][]byte) bool { return len(p[0]) >= standaloneBytes }
		sample = contiguous(parts[max(0, slices.IndexFunc(parts, standalone))])
	}
	best, trialCPU := c.trial(sample)
	c.mu.Lock()
	// Trial encodes are real codec work on the dedicated core; charge
	// them so the adaptive path's advantage is honest.
	c.encodeTime += trialCPU
	if chosen, ok = c.choice[key]; !ok {
		chosen = best
		c.choice[key] = best
	}
	c.mu.Unlock()
	return chosen
}

// trial encodes a prefix of part with every candidate and returns the
// one minimizing the selection score, plus the modelled CPU seconds the
// trials cost.
func (c *Compressing) trial(part []byte) (best string, cpu float64) {
	elem := elemSizeFor(len(part))
	sample := part[:min(len(part), c.opts.SampleBytes)]
	sample = sample[:len(sample)-len(sample)%elem] // element codecs need whole elements
	bw := c.opts.TransferBandwidth
	best = "none"
	bestScore := score("none", len(sample), float64(len(sample)), bw)
	for _, cand := range compress.Names() {
		codec, err := compress.ByName(cand)
		if cand == "none" || err != nil {
			continue
		}
		enc, err := codec.Encode(sample, elem)
		if err != nil {
			// The candidate cannot handle this element structure
			// (e.g. delta on non-8-byte data): not a choice.
			continue
		}
		charge(&cpu, defaultProfiles[cand].EncodeRate, float64(len(sample)))
		if s := score(cand, len(enc), float64(len(sample)), bw); s < bestScore {
			bestScore = s
			best = cand
		}
	}
	return best, cpu
}

// charge adds the codec CPU seconds of n raw bytes at rate (0 = free)
// to total and returns them. Compressing's callers hold c.mu for its
// ledger totals.
func charge(total *float64, rate, n float64) float64 {
	if rate <= 0 {
		return 0
	}
	*total += n / rate
	return n / rate
}

// Put implements ObjectStore: the object is stored as a one-part frame.
func (c *Compressing) Put(name string, data []byte) error {
	return c.PutVec(name, [][]byte{data})
}

// PutVec implements VecStore: the compression pipeline's share of the
// zero-copy aggregation path. The segment list is the element-aligned
// structure of the object, so it is encoded part by part (see partsOf)
// with the dataset's codec and the element width of each part, never
// flattened first. A part the codec cannot handle (element width does
// not divide it) or does not shrink is stored raw in place, its
// segments aliased into the inner write — a cached per-dataset choice
// never makes a later Put fail, and a "none" choice is the same loop
// with every part raw: the write moves a header and a part table, not
// payloads.
func (c *Compressing) PutVec(name string, segs [][]byte) error {
	total := SegsLen(segs)
	if err := checkFrameSize(total); err != nil {
		return err
	}
	parts := partsOf(segs)
	used := c.chooseFor(name, parts)
	codec, err := compress.ByName(used)
	if err != nil {
		return err // a fixed codec the registry does not know
	}
	var w frameWriter
	for _, part := range parts {
		if used != "none" {
			data := contiguous(part)
			elem := elemSizeFor(len(data))
			if enc, err := codec.Encode(data, elem); err == nil && len(enc) < len(data) {
				w.add(len(data), elem, enc)
				continue
			}
		}
		w.add(SegsLen(part), 0, part...)
	}
	if !w.encoded {
		used = "none"
	}
	if err := PutVec(c.inner, name, w.finish(used)); err != nil {
		return err
	}
	c.recordPut(used, int64(total), int64(w.encLen))
	return nil
}

// recordPut accounts one stored object: codec CPU and the object
// counters. How the object itself was encoded is in its frame header.
func (c *Compressing) recordPut(used string, rawBytes, encBytes int64) {
	c.mu.Lock()
	charge(&c.encodeTime, defaultProfiles[used].EncodeRate, float64(rawBytes))
	c.objects++
	c.rawBytes += rawBytes
	c.encBytes += encBytes
	c.mu.Unlock()
}

// Get implements ObjectReader: fetch from the inner store and
// transparently decode framed objects. Unframed objects (a store
// written without compression) pass through byte-for-byte; inner
// errors (ErrNotFound) propagate unchanged.
func (c *Compressing) Get(name string) ([]byte, error) {
	obj, err := c.inner.Get(name)
	if err != nil {
		return obj, err
	}
	if !IsFramed(obj) {
		return obj, nil
	}
	raw, h, err := DecodeFrame(obj)
	if err != nil {
		return nil, fmt.Errorf("storage: object %q: %w", name, err)
	}
	c.mu.Lock()
	charge(&c.decodeTime, defaultProfiles[h.Codec].DecodeRate, float64(len(raw)))
	c.mu.Unlock()
	return raw, nil
}

// List implements ObjectReader: framing does not rename objects.
func (c *Compressing) List(prefix string) ([]string, error) { return c.inner.List(prefix) }

// Delete implements ObjectDeleter when the inner backend does.
func (c *Compressing) Delete(name string) error {
	del, ok := c.inner.(ObjectDeleter)
	if !ok {
		return fmt.Errorf("storage: backend %s cannot delete objects", c.inner.Name())
	}
	return del.Delete(name)
}

// Accounting implements Backend: the inner ledger plus the
// compression counters.
func (c *Compressing) Accounting() Accounting {
	acc := c.inner.Accounting()
	c.mu.Lock()
	defer c.mu.Unlock()
	acc.EncodeTime = c.encodeTime
	acc.DecodeTime = c.decodeTime
	acc.ObjectsCompressed = c.objects
	acc.ObjectRawBytes = c.rawBytes
	acc.ObjectEncodedBytes = c.encBytes
	return acc
}

// ValidateCodecName checks a user-supplied codec option: a registered
// codec name, AdaptiveCodec, or empty (meaning adaptive).
func ValidateCodecName(name string) error {
	if name == "" || name == AdaptiveCodec {
		return nil
	}
	_, err := compress.ByName(name)
	return err
}

// codecCost is the compression pipeline's cost twin: the inner model
// under Reduce with encode/decode as the layer's two cost functions,
// and its ledger overlaid on the inner accounting. The engine runs one
// process at a time, so the ledger needs no lock.
type codecCost struct {
	CostModel
	prof CodecProfile

	bytesSaved float64
	encodeTime float64
	decodeTime float64
}

// CodecCost prices the compression pipeline on the cost face: every
// transfer through it charges the codec's CPU time on the dedicated
// core and moves only the encoded volume (raw / AssumedRatio) to inner.
// codec is a registered codec name or AdaptiveCodec ("" too), which
// picks one codec here, once: the candidate minimizing the selector's
// score over the profile table at the default transfer bandwidth — the
// object face's objective, evaluated where no real bytes exist.
func CodecCost(inner CostModel, codec string) (CostModel, error) {
	if err := ValidateCodecName(codec); err != nil {
		return nil, err
	}
	if codec == "" || codec == AdaptiveCodec {
		codec = "none"
		best := score("none", 1<<20, 1<<20, defaultTransferBandwidth)
		for _, cand := range compress.Names() {
			prof, ok := defaultProfiles[cand]
			if !ok || cand == "none" {
				continue
			}
			if s := score(cand, int((1<<20)/prof.AssumedRatio), 1<<20, defaultTransferBandwidth); s < best {
				best, codec = s, cand
			}
		}
	}
	c := &codecCost{prof: defaultProfiles[codec]}
	c.CostModel = Reduce(inner, c.encode, c.decode)
	return c, nil
}

// encode is the layer's write-side TransferCost: it charges encode CPU
// and returns the wait time plus the shrunken transfer volume.
func (c *codecCost) encode(bytes float64) (wait, encoded float64) {
	encoded = bytes / c.prof.AssumedRatio
	c.bytesSaved += bytes - encoded
	return charge(&c.encodeTime, c.prof.EncodeRate, bytes), encoded
}

// decode is the read-side TransferCost, encode's mirror: the raw volume
// is reassembled from encoded bytes read back, charging decode CPU.
func (c *codecCost) decode(bytes float64) (wait, encoded float64) {
	return charge(&c.decodeTime, c.prof.DecodeRate, bytes), bytes / c.prof.AssumedRatio
}

// Accounting implements CostModel: the inner ledger plus the codec
// counters.
func (c *codecCost) Accounting() Accounting {
	acc := c.CostModel.Accounting()
	acc.BytesSaved = c.bytesSaved
	acc.EncodeTime = c.encodeTime
	acc.DecodeTime = c.decodeTime
	return acc
}
