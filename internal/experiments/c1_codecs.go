package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/iostrat"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
)

// c1TransferBW is the per-stream transfer bandwidth the cost metric
// prices codec CPU against — the same default the adaptive selector
// uses, so the sweep and the selector optimize the same objective.
const c1TransferBW = 200e6

// c1Iters is how many objects of each dataset the sweep stores; enough
// that the adaptive selector's one-time trial encodes amortize.
const c1Iters = 24

// c1SampleBytes bounds the selector's trial encodes in the sweep: the
// trial is codec CPU too, and a small sample keeps its cost honest
// without burying the per-iteration gains.
const c1SampleBytes = 16 << 10

// c1Dataset is one synthetic variable of the mixed workload, shaped so
// a different codec wins each: a smooth float64 field (Gorilla), a
// near-monotonic int64 counter stream (delta), a sparse byte mask
// (RLE).
type c1Dataset struct {
	name string
	gen  func(it int) []byte
}

func c1Datasets() []c1Dataset {
	return []c1Dataset{
		{name: "temp", gen: func(it int) []byte {
			// Smooth field: consecutive values XOR to mostly-zero words.
			out := make([]byte, 8192*8)
			for i := 0; i < 8192; i++ {
				v := 300.0 + 5.0*math.Sin(float64(i)/512.0+float64(it)/7.0)
				binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
			}
			return out
		}},
		{name: "rank", gen: func(it int) []byte {
			// Monotonic counters with small varying steps: tiny varint deltas.
			out := make([]byte, 8192*8)
			v := int64(it) * 1000
			for i := 0; i < 8192; i++ {
				v += int64(1 + (i*37+it)%97)
				binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
			}
			return out
		}},
		{name: "mask", gen: func(it int) []byte {
			// Sparse activity mask: long zero runs with scattered ones.
			out := make([]byte, 64<<10)
			for i := 97 + it; i < len(out); i += 131 {
				out[i] = 1
			}
			return out
		}},
	}
}

// c1Policies are the storage-codec policies the sweep compares: every
// fixed codec plus the adaptive selector.
func c1Policies() []string {
	return []string{"none", "rle", "delta", "gorilla", "flate", storage.AdaptiveCodec}
}

// c1Cost is the sweep's objective in transfer-byte equivalents: bytes
// that actually moved to and from the store plus the codec CPU
// converted at the transfer bandwidth, discounted by the spare-time
// weight the selector itself uses — §IV.D's trade as a single number.
func c1Cost(acc storage.Accounting) float64 {
	moved := float64(acc.ObjectBytes) + float64(acc.ObjectReadBytes)
	return moved + (acc.EncodeTime+acc.DecodeTime)*c1TransferBW*storage.DefaultCPUCostWeight
}

// RunC1 sweeps the compression pipeline on the real data path (ROADMAP
// "backend compression pipeline" item): every fixed codec and the
// adaptive selector store and read back a mixed float/int/mask
// workload, scored by CPU charged plus bytes moved; a compressed store
// is round-tripped through cluster.Restore/Replay on all three
// backends; and the DES face prices dedicated-core compression at
// scale, mirroring E5 on the pipeline instead of the abstract ratio
// knob.
func RunC1(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{ID: "C1", Title: "storage-codec sweep and adaptive selection (§IV.D on the data path)"}

	// Part 1: codec × dataset sweep on real bytes through a memory
	// backend, write plus read-back, byte equality enforced throughout.
	sweep := stats.NewTable(
		fmt.Sprintf("codec sweep over %d iterations of 3 datasets (cost at %.0f MB/s transfer)",
			c1Iters, c1TransferBW/1e6),
		"policy", "raw_MB", "stored_MB", "ratio", "codec_cpu_ms", "cost_MB")
	datasets := c1Datasets()
	costs := map[string]float64{}
	adaptiveChoices := map[string]string{}
	for _, policy := range c1Policies() {
		base := storage.NewMemory(nil, 4, 1e9)
		store := storage.NewCompressing(base,
			storage.CompressionOptions{
				Codec:             policy,
				TransferBandwidth: c1TransferBW,
				SampleBytes:       c1SampleBytes,
			})
		for it := 0; it < c1Iters; it++ {
			for _, ds := range datasets {
				name := fmt.Sprintf("c1-%s-it%06d", ds.name, it)
				data := ds.gen(it)
				if err := store.Put(name, data); err != nil {
					return Report{}, fmt.Errorf("c1: %s put %s: %w", policy, name, err)
				}
				got, err := store.Get(name)
				if err != nil {
					return Report{}, fmt.Errorf("c1: %s get %s: %w", policy, name, err)
				}
				if !bytes.Equal(got, data) {
					return Report{}, fmt.Errorf("c1: %s round trip of %s differs", policy, name)
				}
			}
		}
		acc := store.Accounting()
		if policy == storage.AdaptiveCodec {
			// Each dataset's last stored frame records the cached choice;
			// read after the ledger, so the reads do not count as cost.
			for _, ds := range datasets {
				name := fmt.Sprintf("c1-%s-it%06d", ds.name, c1Iters-1)
				obj, err := base.Get(name)
				if err != nil {
					return Report{}, fmt.Errorf("c1: base get %s: %w", name, err)
				}
				h, _, err := storage.ParseFrameHeader(obj)
				if err != nil {
					return Report{}, fmt.Errorf("c1: frame of %s: %w", name, err)
				}
				adaptiveChoices[ds.name] = h.Codec
			}
		}
		cost := c1Cost(acc)
		costs[policy] = cost
		sweep.AddRow(policy, float64(acc.ObjectRawBytes)/1e6, float64(acc.ObjectBytes)/1e6,
			float64(acc.ObjectRawBytes)/float64(acc.ObjectBytes),
			(acc.EncodeTime+acc.DecodeTime)*1e3, cost/1e6)
	}
	bestFixed := math.Inf(1)
	for policy, cost := range costs {
		if policy != storage.AdaptiveCodec && cost < bestFixed {
			bestFixed = cost
		}
	}
	choiceTable := stats.NewTable("adaptive selector choices", "dataset", "codec")
	distinct := map[string]bool{}
	for _, ds := range datasets {
		choiceTable.AddRow(ds.name, adaptiveChoices[ds.name])
		distinct[adaptiveChoices[ds.name]] = true
	}

	// Part 2: compressed-store restart round trip through
	// cluster.Restore/Replay on all three backends. The pfs model
	// retains no payloads — the round trip there asserts the documented
	// ErrNoPayload degradation instead of byte equality.
	rtTable := stats.NewTable("compressed-store restore round trip (4 nodes × 2 clients × 2 iterations)",
		"backend", "objects", "manifests", "blocks", "byte_equal", "replayed_iters")
	byteEqualOK, framesOK := 1.0, 1.0
	for _, kind := range storage.Kinds() {
		r, err := c1RoundTrip(opts, kind)
		if err != nil {
			return Report{}, fmt.Errorf("c1: %s round trip: %w", kind, err)
		}
		rtTable.AddRow(string(kind), r.objects, r.manifests, r.blocks, r.byteEqual, r.replayed)
		if kind != storage.KindPFS {
			if r.byteEqual != 1 {
				byteEqualOK = 0
			}
			if !r.framesRecordCodec {
				framesOK = 0
			}
		}
	}

	// Part 3: the DES face at scale — the §IV.D system effect, priced
	// through the pipeline instead of E5's abstract ratio knob.
	cores := opts.maxScale()
	base := opts.strategyConfig(cores)
	base.Codec = ""
	plain, err := iostrat.Run(iostrat.Damaris, base)
	if err != nil {
		return Report{}, err
	}
	withCodec := opts.strategyConfig(cores)
	withCodec.Codec = "gorilla"
	compressed, err := iostrat.Run(iostrat.Damaris, withCodec)
	if err != nil {
		return Report{}, err
	}
	desTable := stats.NewTable(
		fmt.Sprintf("Damaris at %d cores through the compressing backend", cores),
		"config", "run_time_s", "GB_to_storage", "GB_saved", "codec_cpu_s", "skipped")
	desTable.AddRow("plain", plain.TotalTime, stats.GB(plain.BytesWritten),
		stats.GB(plain.BytesSaved), plain.CodecCPUTime, plain.SkippedIters)
	desTable.AddRow("codec=gorilla", compressed.TotalTime, stats.GB(compressed.BytesWritten),
		stats.GB(compressed.BytesSaved), compressed.CodecCPUTime, compressed.SkippedIters)

	rep.Tables = []*stats.Table{sweep, choiceTable, rtTable, desTable}
	overhead := 1.0
	if plain.TotalTime > 0 {
		overhead = compressed.TotalTime / plain.TotalTime
	}
	gorillaRatio := 6.0
	if p, ok := storage.Profile("gorilla"); ok {
		gorillaRatio = p.AssumedRatio
	}
	rep.Checks = []Check{
		{
			Name:     "adaptive cost vs best fixed codec",
			Paper:    "per-dataset codec choice wins on mixed data",
			Measured: costs[storage.AdaptiveCodec] / bestFixed, Unit: "x", Lo: 0, Hi: 1.0001,
		},
		{
			Name:     "distinct codecs chosen across datasets",
			Paper:    "selection is actually per dataset",
			Measured: float64(len(distinct)), Unit: "", Lo: 2,
		},
		{
			Name:     "compressed store restores byte-for-byte",
			Paper:    "compression is lossless end to end",
			Measured: byteEqualOK, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "stored frames record codec and sizes",
			Paper:    "restart sees the compression story",
			Measured: framesOK, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "simulation overhead with the pipeline",
			Paper:    "without any overhead on the simulation (§IV.D)",
			Measured: overhead, Unit: "x", Lo: 0.995, Hi: 1.005,
		},
		{
			Name:     "storage bytes shrink by the codec ratio",
			Paper:    "600% compression ratio (§IV.D)",
			Measured: plain.BytesWritten / compressed.BytesWritten, Unit: "x",
			Lo: gorillaRatio * 0.95, Hi: gorillaRatio * 1.05,
		},
	}
	return rep, nil
}

// c1RoundTripResult summarizes one backend's compressed-store restore.
type c1RoundTripResult struct {
	objects           int
	manifests         int
	blocks            int
	byteEqual         float64
	replayed          int
	framesRecordCodec bool
}

// c1Field is the deterministic payload for (node, source, iteration),
// compressible and verifiable byte-for-byte after the round trip.
func c1Field(n, s, it int) []byte {
	out := make([]byte, 64*8)
	for i := 0; i < 64; i++ {
		v := float64(n) + float64(s)/8 + math.Sin(float64(i+it)/9.0)
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// c1RoundTrip writes a small cluster run through a compressed store on
// the given backend kind, restores it with cluster.Restore, verifies
// every recovered block byte-for-byte and replays the iterations.
func c1RoundTrip(opts Options, kind storage.Kind) (c1RoundTripResult, error) {
	const (
		nodes   = 4
		clients = 2
		iters   = 2
	)
	base, cleanup, err := c1Backend(opts, kind)
	if err != nil {
		return c1RoundTripResult{}, err
	}
	defer cleanup()
	store, err := chunk.Stack(base, storage.AdaptiveCodec, nil)
	if err != nil {
		return c1RoundTripResult{}, err
	}
	st, _, err := runtimeLeg{
		job: "c1", nodes: nodes, clients: clients, floats: 64, iters: iters,
		cc:      cluster.ClusterConfig{Store: store},
		payload: c1Field,
	}.run()
	if err != nil {
		return c1RoundTripResult{}, err
	}

	restored, err := cluster.Restore(store, "c1")
	if err != nil {
		return c1RoundTripResult{}, err
	}
	res := c1RoundTripResult{
		objects:   st.ObjectsWritten,
		manifests: restored.Manifests,
		blocks:    restored.TotalBlocks(),
	}
	if kind == storage.KindPFS {
		// The pure cost model retains no payloads: the store is known
		// but not recoverable, the same ErrNoPayload degradation the
		// uncompressed read path documents.
		if restored.TotalBlocks() != 0 {
			return res, fmt.Errorf("pfs restored %d blocks from a payload-free model", restored.TotalBlocks())
		}
		return res, nil
	}
	if len(restored.Problems) > 0 {
		return res, fmt.Errorf("restore problems: %v", restored.Problems)
	}
	res.byteEqual = 1
	want := nodes * clients * iters
	if res.blocks != want {
		return res, fmt.Errorf("recovered %d blocks, want %d", res.blocks, want)
	}
	for _, it := range restored.IterationNumbers() {
		for n, blocks := range restored.NodeBlocks(it) {
			for _, blk := range blocks {
				if !bytes.Equal(blk.Data, c1Field(n, blk.Source, it)) {
					res.byteEqual = 0
				}
			}
		}
	}
	if err := restored.Replay(func(int, *cluster.Batch) error {
		res.replayed++
		return nil
	}); err != nil {
		return res, err
	}
	// Every stored object carries its codec story in its own frame
	// header: re-read them raw from the base store.
	res.framesRecordCodec = true
	names, err := base.List("c1-")
	if err != nil {
		return res, err
	}
	for _, name := range names {
		obj, err := base.Get(name)
		if err != nil {
			return res, err
		}
		h, _, err := storage.ParseFrameHeader(obj)
		if err != nil || h.Codec == "" || h.RawSize <= 0 || h.EncodedSize <= 0 {
			res.framesRecordCodec = false
		}
	}
	return res, nil
}

// c1Backend builds the base store of one round-trip run for the given
// backend kind; cleanup removes temporary artifacts.
func c1Backend(opts Options, kind storage.Kind) (store storage.Backend, cleanup func(), err error) {
	cleanup = func() {}
	switch kind {
	case storage.KindMemory:
		store = storage.NewMemory(nil, 4, 1e9)
	case storage.KindSDF:
		dir, err := os.MkdirTemp("", "c1-roundtrip-")
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		if store, err = storage.NewSDF(nil, 4, 1e9, dir); err != nil {
			cleanup()
			return nil, nil, err
		}
	default:
		p := opts.platformFor(opts.Scales[0])
		store = storage.NewPFS(des.NewEngine(), p.PFS, rng.New(opts.Seed, 41))
	}
	return store, cleanup, nil
}
