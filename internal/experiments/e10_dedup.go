package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
)

// e10Fracs is the overwrite-fraction sweep: the share of the dataset
// rewritten between consecutive checkpoints. 0 is the pure append /
// static-state extreme, 1 is a full overwrite every iteration (no
// cross-iteration sharing for the dedup store to find).
var e10Fracs = []float64{0, 0.25, 0.5, 1}

// e10ChunkParams keeps chunks small against the 32 KiB per-iteration
// objects of the runtime sweep, so dedup granularity — not boundary
// overhead — dominates the measurement.
var e10ChunkParams = chunk.Params{Min: 256, Avg: 1024, Max: 4096}

// e10Floats makes blocks 2 KiB, so each iteration's merged object is
// large against the chunk size and the boundary dirt around an edit
// stays a small fraction of the volume.
const e10Floats = 256

// The runtime sweep's cluster.
const (
	e10Nodes   = 8
	e10Clients = 2
	e10Iters   = 8
)

// e10Payload builds the 2 KiB block for (node, source, it) at overwrite
// fraction frac: blocks whose index falls below the fraction get fresh
// pseudorandom content every iteration, the rest stay bit-identical
// across the run. Content is pseudorandom, never a ramp — low-entropy
// data would starve the rolling hash of boundaries and turn
// content-defined chunking into fixed-size cuts.
func e10Payload(frac float64) func(node, source, it int) []byte {
	return func(node, source, it int) []byte {
		seed := int64(node)<<20 | int64(source)<<8
		if node*e10Clients+source < int(frac*e10Nodes*e10Clients+0.5) {
			seed |= int64(it+1) << 32
		}
		p := make([]byte, e10Floats*8)
		rand.New(rand.NewSource(seed)).Read(p)
		return p
	}
}

// RunE10 measures content-addressed incremental checkpointing (ROADMAP
// "incremental checkpoints" item) on both faces. Runtime: a real
// cluster writes an overwrite-fraction sweep twice — once to a plain
// store, once through the dedup chunk store — and the table compares
// bytes on the backend, write wall time and restore wall time; a
// retention+GC leg then releases aged iterations, sweeps, and proves
// the retained window still restores. DES: the damaris strategy runs
// with the dedup store priced on the dedicated cores (chunk/hash CPU
// vs forwarded-volume savings), the §IV.D spare-CPU trade that
// motivates doing this on the dedicated core at all.
func RunE10(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{ID: "E10", Title: "incremental checkpoints: dedup, retention GC"}

	rtTable := stats.NewTable(
		fmt.Sprintf("dedup vs plain store, %d nodes × %d clients, %d iterations, memory store",
			e10Nodes, e10Clients, e10Iters),
		"overwrite_frac", "plain_KB", "dedup_KB", "reduction",
		"write_ms_plain", "write_ms_dedup", "restore_ms_plain", "restore_ms_dedup", "recovered_frac").
		Measured("write_ms_plain", "write_ms_dedup", "restore_ms_plain", "restore_ms_dedup")

	// leg writes the run at overwrite fraction f into store, restores it
	// and weighs device, the backend at the bottom of store's stack.
	type legResult struct {
		write, restore time.Duration
		bytes          float64
		restored       *cluster.Restored
	}
	leg := func(f float64, store, device storage.Backend) (l legResult, err error) {
		if l.write, err = runE10Cluster(f, 0, store); err != nil {
			return l, err
		}
		if l.restored, l.restore, err = restoreClean(store, "e10"); err != nil {
			return l, err
		}
		l.bytes, err = storedBytes(device)
		return l, err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	minRecovered := 1.0
	reductionAt25 := 0.0
	for _, f := range e10Fracs {
		mem := storage.NewMemory(nil, 4, 1e9)
		plain, err := leg(f, mem, mem)
		if err != nil {
			return Report{}, err
		}
		inner := storage.NewMemory(nil, 4, 1e9)
		dedup, err := leg(f, chunk.New(inner, chunk.Options{Params: e10ChunkParams}), inner)
		if err != nil {
			return Report{}, fmt.Errorf("dedup store at overwrite %v: %w", f, err)
		}

		recovered := float64(dedup.restored.TotalBlocks()) / float64(e10Nodes*e10Clients*e10Iters)
		minRecovered = min(minRecovered, recovered)
		reduction := plain.bytes / dedup.bytes
		if f == 0.25 {
			reductionAt25 = reduction
		}
		rtTable.AddRow(f, plain.bytes/1e3, dedup.bytes/1e3, reduction,
			ms(plain.write), ms(dedup.write), ms(plain.restore), ms(dedup.restore), recovered)
	}

	// Retention + GC leg at the 25% point: aged iterations are released
	// as the run advances, the sweep reclaims them, and the retained
	// window must still restore completely.
	retain := opts.Retain
	if retain <= 0 {
		retain = 2
	}
	gcStore := chunk.New(storage.NewMemory(nil, 4, 1e9), chunk.Options{Params: e10ChunkParams})
	if _, err := runE10Cluster(0.25, retain, gcStore); err != nil {
		return Report{}, err
	}
	swept, err := gcStore.Sweep()
	if err != nil {
		return Report{}, err
	}
	gcRestored, err := cluster.Restore(gcStore, "e10")
	if err != nil {
		return Report{}, err
	}
	retainedOK := 1.0
	if len(gcRestored.Problems) > 0 {
		retainedOK = 0
	}
	for it := e10Iters - retain; it < e10Iters; it++ {
		ri := gcRestored.Iterations[it]
		if ri == nil || !ri.Complete(e10Nodes) {
			retainedOK = 0
		}
	}
	gcTable := stats.NewTable(
		fmt.Sprintf("retention window %d + GC sweep at overwrite 0.25", retain),
		"objects_swept", "chunks_swept", "KB_freed", "iterations_left", "retained_complete")
	gcTable.AddRow(swept.Objects, swept.Chunks, float64(swept.BytesFreed)/1e3,
		len(gcRestored.Iterations), retainedOK)

	// DES face: the damaris strategy over the priced dedup store. The
	// codec pipeline stays off so the comparison isolates the dedup
	// trade (C1 prices compression).
	cores := opts.maxScale()
	desTable := stats.NewTable(
		fmt.Sprintf("DES damaris, %d cores, dedup store on the dedicated cores",
			cores),
		"assumed_new_frac", "written_GB", "reduction", "saved_GB", "hash_cpu_s", "mean_io_s")
	baseCfg := opts.strategyConfig(cores)
	baseCfg.Codec = ""
	baseCfg.Dedup = false
	baseRes, err := iostrat.Run(iostrat.Damaris, baseCfg)
	if err != nil {
		return Report{}, err
	}
	desTable.AddRow(1.0, stats.GB(baseRes.BytesWritten), 1.0, 0.0, 0.0, baseRes.MeanIOTime())

	desReduction25 := 0.0
	hashCPU := 0.0
	for _, nf := range []float64{1, 0.5, 0.25} {
		cfg := opts.strategyConfig(cores)
		cfg.Codec = ""
		cfg.Dedup = true
		cfg.DedupNewFraction = nf
		res, err := iostrat.Run(iostrat.Damaris, cfg)
		if err != nil {
			return Report{}, err
		}
		reduction := 0.0
		if res.BytesWritten > 0 {
			reduction = baseRes.BytesWritten / res.BytesWritten
		}
		if nf == 0.25 {
			desReduction25 = reduction
			hashCPU = res.HashCPUTime
		}
		desTable.AddRow(nf, stats.GB(res.BytesWritten), reduction,
			stats.GB(res.DedupBytesSaved), res.HashCPUTime, res.MeanIOTime())
	}

	rep.Tables = []*stats.Table{rtTable, gcTable, desTable}
	rep.Checks = []Check{
		{
			Name:     "dedup cuts stored bytes >= 2x at 25% overwrite",
			Paper:    "incremental checkpoints store only changed chunks",
			Measured: reductionAt25, Unit: "x", Lo: 2,
		},
		{
			Name:     "dedup round trip is lossless",
			Paper:    "every sweep point restores 100% of its blocks",
			Measured: minRecovered, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "retained window survives the GC sweep",
			Paper:    "sweeping released checkpoints never breaks retained ones",
			Measured: retainedOK, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "GC sweep actually reclaims space",
			Paper:    "released iterations free their objects and chunks",
			Measured: float64(swept.Objects), Unit: "objects", Lo: 1,
		},
		{
			Name:     "DES dedup forwards only the new fraction",
			Paper:    "25% new chunks -> ~4x less volume to the backend",
			Measured: desReduction25, Unit: "x", Lo: 2, Hi: 4.5,
		},
		{
			Name:     "chunk/hash CPU is priced on the dedicated cores",
			Paper:    "fingerprinting costs spare dedicated-core cycles (§IV.D)",
			Measured: hashCPU, Unit: "s", Lo: 1e-9,
		},
	}
	return rep, nil
}

// storedBytes sums the payload sizes of every object a backend holds —
// chunk packs and their indexes, recipes and manifests included — the
// bytes a capacity planner would see on the device.
func storedBytes(be storage.Backend) (float64, error) {
	names, err := be.List("")
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, n := range names {
		data, err := be.Get(n)
		if err != nil {
			return 0, err
		}
		total += float64(len(data))
	}
	return total, nil
}

// runE10Cluster drives the sweep's runtime cluster over the given store at
// overwrite fraction frac and returns the write wall time.
func runE10Cluster(frac float64, retain int, store storage.ObjectStore) (time.Duration, error) {
	_, wall, err := runtimeLeg{
		job: "e10", nodes: e10Nodes, clients: e10Clients, floats: e10Floats, iters: e10Iters,
		cc:      cluster.ClusterConfig{Store: store},
		spec:    cluster.RunSpec{Retain: retain},
		payload: e10Payload(frac),
	}.run()
	return wall, err
}
