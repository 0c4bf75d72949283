package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/meta"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// e10Fracs is the overwrite-fraction sweep: the share of the dataset
// rewritten between consecutive checkpoints. 0 is the pure append /
// static-state extreme, 1 is a full overwrite every iteration (no
// cross-iteration sharing for the dedup store to find).
var e10Fracs = []float64{0, 0.25, 0.5, 1}

// e10ClusterMeta uses 2 KiB blocks so each iteration's merged object is
// large against the chunk size and the boundary dirt around an edit
// stays a small fraction of the volume.
const e10ClusterMeta = `<simulation name="e10">
  <architecture><dedicated cores="1"/><buffer size="4194304"/></architecture>
  <data>
    <parameter name="n" value="256"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

// e10ChunkParams keeps chunks small against the 32 KiB per-iteration
// objects of the runtime sweep, so dedup granularity — not boundary
// overhead — dominates the measurement.
var e10ChunkParams = chunk.Params{Min: 256, Avg: 1024, Max: 4096}

// e10Payload builds the 2 KiB block for (node, source, it): blocks
// whose index falls below the overwrite fraction get fresh pseudorandom
// content every iteration, the rest stay bit-identical across the run.
// Content is pseudorandom, never a ramp — low-entropy data would starve
// the rolling hash of boundaries and turn content-defined chunking into
// fixed-size cuts.
func e10Payload(clients int, frac float64, total, node, source, it int) []byte {
	idx := node*clients + source
	seed := int64(node)<<20 | int64(source)<<8
	if idx < int(frac*float64(total)+0.5) {
		seed |= int64(it+1) << 32
	}
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, 256*8)
	r.Read(p)
	return p
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

	const (
		rtNodes   = 8
		rtClients = 2
		rtIters   = 8
	)
	rtTable := stats.NewTable(
		fmt.Sprintf("dedup vs plain store, %d nodes × %d clients, %d iterations, memory store",
			rtNodes, rtClients, rtIters),
		"overwrite_frac", "plain_KB", "dedup_KB", "reduction",
		"write_ms_plain", "write_ms_dedup", "restore_ms_plain", "restore_ms_dedup", "recovered_frac")

	minRecovered := 1.0
	reductionAt25 := 0.0
	for _, frac := range e10Fracs {
		f := frac
		payload := func(node, source, it int) []byte {
			return e10Payload(rtClients, f, rtNodes*rtClients, node, source, it)
		}

		plain := storage.NewMemory(nil, 4, 1e9)
		plainWrite, err := runE10Cluster(rtNodes, rtClients, rtIters, 0, plain, payload)
		if err != nil {
			return Report{}, err
		}
		t0 := time.Now()
		if _, err := cluster.Restore(plain, "e10"); err != nil {
			return Report{}, err
		}
		plainRestore := time.Since(t0)
		plainBytes, err := storedBytes(plain)
		if err != nil {
			return Report{}, err
		}

		inner := storage.NewMemory(nil, 4, 1e9)
		ds := chunk.New(inner, chunk.Options{Params: e10ChunkParams})
		dedupWrite, err := runE10Cluster(rtNodes, rtClients, rtIters, 0, ds, payload)
		if err != nil {
			return Report{}, err
		}
		t0 = time.Now()
		restored, err := cluster.Restore(ds, "e10")
		if err != nil {
			return Report{}, err
		}
		dedupRestore := time.Since(t0)
		if len(restored.Problems) > 0 {
			return Report{}, fmt.Errorf("e10: dedup restore problems at frac %v: %v", f, restored.Problems)
		}
		dedupBytes, err := storedBytes(inner)
		if err != nil {
			return Report{}, err
		}

		recovered := float64(restored.TotalBlocks()) / float64(rtNodes*rtClients*rtIters)
		if recovered < minRecovered {
			minRecovered = recovered
		}
		reduction := plainBytes / dedupBytes
		if f == 0.25 {
			reductionAt25 = reduction
		}
		rtTable.AddRow(f, plainBytes/1e3, dedupBytes/1e3, reduction,
			float64(plainWrite.Microseconds())/1e3, float64(dedupWrite.Microseconds())/1e3,
			float64(plainRestore.Microseconds())/1e3, float64(dedupRestore.Microseconds())/1e3,
			recovered)
	}

	// Retention + GC leg at the 25% point: aged iterations are released
	// as the run advances, the sweep reclaims them, and the retained
	// window must still restore completely.
	retain := opts.Retain
	if retain <= 0 {
		retain = 2
	}
	gcInner := storage.NewMemory(nil, 4, 1e9)
	gcStore := chunk.New(gcInner, chunk.Options{Params: e10ChunkParams})
	gcPayload := func(node, source, it int) []byte {
		return e10Payload(rtClients, 0.25, rtNodes*rtClients, node, source, it)
	}
	if _, err := runE10Cluster(rtNodes, rtClients, rtIters, retain, gcStore, gcPayload); err != nil {
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
	for it := rtIters - retain; it < rtIters; it++ {
		ri := gcRestored.Iterations[it]
		if ri == nil || !ri.Complete(rtNodes) {
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
// chunks, recipes and manifests included — the bytes a capacity planner
// would see on the device.
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

// runE10Cluster drives one runtime cluster over the given store with
// per-(node,source,iteration) payloads and returns the write wall time.
func runE10Cluster(nodes, clients, iters, retain int, store storage.ObjectStore, payload func(node, source, it int) []byte) (time.Duration, error) {
	cfg, err := meta.ParseString(e10ClusterMeta)
	if err != nil {
		return 0, err
	}
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "e10", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   2,
		Store:    store,
	}, cluster.RunSpec{
		Meta:   cfg,
		Retain: retain,
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for n := 0; n < nodes; n++ {
		for s := 0; s < clients; s++ {
			wg.Add(1)
			go func(n, s int) {
				defer wg.Done()
				cl := c.Client(n, s)
				for it := 0; it < iters; it++ {
					if err := cl.Write("theta", it, payload(n, s, it)); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("node %d src %d it %d: %w", n, s, it, err)
						}
						mu.Unlock()
						return
					}
					cl.EndIteration(it)
				}
			}(n, s)
		}
	}
	wg.Wait()
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return time.Since(start), nil
}
