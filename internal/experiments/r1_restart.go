package experiments

import (
	"fmt"
	"path/filepath"
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

// r1Rates are the node-failure rates swept by the runtime restore side.
var r1Rates = []float64{0, 0.25}

// r1ClusterMeta mirrors F1's per-node configuration: one 512-byte
// variable per client, so block counts are easy to reason about.
const r1ClusterMeta = `<simulation name="r1">
  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
  <data>
    <parameter name="n" value="64"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

// RunR1 exercises the object read path end to end (ROADMAP "object
// read path" item): a runtime cluster writes N iterations of objects
// plus manifests — optionally losing nodes mid-run — then
// cluster.Restore reads everything back and the recovered state is
// compared block-for-block against what the failure semantics say
// survived. The DES side prices the restart read itself (tree-striped
// object reads vs per-node files, the inverse of the write path) and
// contrasts it with the §V.C skip policy, which avoids checkpoint
// reads by dropping data that must then be recomputed.
func RunR1(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{ID: "R1", Title: "checkpoint/restart from stored objects"}

	// Runtime side: write with optional failures, restore, compare.
	const (
		rtNodes   = 8
		rtClients = 2
		rtIters   = 4
		rtFailAt  = rtIters / 2
	)
	rtTable := stats.NewTable(
		fmt.Sprintf("restore-from-objects, %d nodes × %d clients, %d iterations, %s store",
			rtNodes, rtClients, rtIters, r1StoreName(opts)),
		"fail_rate", "nodes_failed", "blocks_lost", "manifests", "blocks_recovered",
		"recovered_frac", "latest_ckpt", "restore_ms")

	type rtRun struct {
		st        cluster.Stats
		recovered int
		produced  int
		frac      float64
		latest    int
		latestOK  bool
	}
	var rtRuns []rtRun
	for i, rate := range r1Rates {
		sched := cluster.NewFailureSchedule()
		for k := 0; k < int(rate*rtNodes+0.5); k++ {
			// Spread deaths over the tree, keeping node 0 (a root) alive.
			sched.Add(1+(k*3)%(rtNodes-1), rtFailAt)
		}
		store, err := r1Store(opts, i)
		if err != nil {
			return Report{}, err
		}
		st, err := runR1Cluster(rtNodes, rtClients, rtIters, sched, store)
		if err != nil {
			return Report{}, err
		}
		t0 := time.Now()
		restored, err := cluster.Restore(store, "r1")
		if err != nil {
			return Report{}, err
		}
		restoreWall := time.Since(t0)
		if len(restored.Problems) > 0 {
			return Report{}, fmt.Errorf("r1: restore problems: %v", restored.Problems)
		}
		run := rtRun{
			st:        st,
			recovered: restored.TotalBlocks(),
			produced:  rtNodes * rtClients * rtIters,
		}
		run.frac = float64(run.recovered) / float64(run.produced)
		run.latest, run.latestOK = restored.LatestComplete(rtNodes)
		if !run.latestOK {
			run.latest = -1
		}
		rtRuns = append(rtRuns, run)
		rtTable.AddRow(rate, st.NodesFailed, st.BlocksLost, restored.Manifests,
			run.recovered, run.frac, run.latest,
			float64(restoreWall.Microseconds())/1e3)
	}

	// DES side: the cost of reading a checkpoint back, against the
	// cost the skip policy hides (recomputing what it dropped).
	cores := opts.maxScale()
	plat := opts.platformFor(cores)
	fanout := opts.Fanout
	if fanout < 2 {
		fanout = 4
	}
	desTable := stats.NewTable(
		fmt.Sprintf("DES restart-read model, %d nodes, fanout %d, backend %s",
			plat.Nodes, fanout, orDefault(opts.Backend, string(storage.KindPFS))),
		"policy", "restart_read_s", "restart_total_s", "read_GB", "loss_frac", "recompute_equiv_s")

	treeCfg := opts.strategyConfig(cores)
	treeCfg.Fanout = fanout
	// The DES model here prices the *layout* of the restart read; its
	// checks compare against raw checkpoint bytes, so the compression
	// pipeline stays off regardless of -codec (C1 prices that trade).
	treeCfg.Codec = ""
	treeRes, err := iostrat.RestartRead(treeCfg)
	if err != nil {
		return Report{}, err
	}
	desTable.AddRow("restart tree-striped", treeRes.ReadTime, treeRes.TotalTime,
		stats.GB(treeRes.BytesRead), 0.0, 0.0)

	flatCfg := opts.strategyConfig(cores)
	flatCfg.Fanout = 0
	flatCfg.Codec = ""
	flatRes, err := iostrat.RestartRead(flatCfg)
	if err != nil {
		return Report{}, err
	}
	desTable.AddRow("restart per-node files", flatRes.ReadTime, flatRes.TotalTime,
		stats.GB(flatRes.BytesRead), 0.0, 0.0)

	// §V.C skip baseline: a segment too small makes the producer drop
	// iterations; nothing to read back, but the dropped share must be
	// recomputed to reach the same state a checkpoint read restores.
	skipCfg := opts.strategyConfig(cores)
	skipCfg.Fanout = fanout
	skipCfg.ShmCapacity = 0.75 * iostrat.CM1Workload(opts.Iterations).NodeBytes(plat.CoresPerNode)
	skipRes, err := iostrat.Run(iostrat.Damaris, skipCfg)
	if err != nil {
		return Report{}, err
	}
	skipLoss := skipRes.DataLossFraction()
	recompute := skipLoss * float64(opts.Iterations) * skipCfg.Workload.ComputeTime
	desTable.AddRow("skip-policy shm=0.75x", 0.0, 0.0, 0.0, skipLoss, recompute)

	rep.Tables = []*stats.Table{rtTable, desTable}

	noFail, topFail := rtRuns[0], rtRuns[len(rtRuns)-1]
	exactNonLost := 0.0
	if want := topFail.produced - topFail.st.BlocksLost; want > 0 {
		exactNonLost = float64(topFail.recovered) / float64(want)
	}
	latestOK := 0.0
	if noFail.latestOK && noFail.latest == rtIters-1 {
		latestOK = 1
	}
	wantBytes := iostrat.CM1Workload(opts.Iterations).NodeBytes(plat.CoresPerNode) *
		float64(plat.Nodes)
	rep.Checks = []Check{
		{
			Name:     "restore recovers everything without failures",
			Paper:    "checkpoint/restart is lossless",
			Measured: noFail.frac, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "latest checkpoint is the final iteration",
			Paper:    "no-failure run restarts at the end",
			Measured: latestOK, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "restore recovers exactly the non-lost blocks",
			Paper:    "failures lose only the dead nodes' output",
			Measured: exactNonLost, Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "failure run actually lost blocks",
			Paper:    "the sweep exercises loss",
			Measured: float64(topFail.st.BlocksLost), Unit: "blocks", Lo: 1,
		},
		{
			Name:     "DES restart reads the whole checkpoint",
			Paper:    "read path mirrors the write path",
			Measured: treeRes.BytesRead / wantBytes, Unit: "", Lo: 0.999, Hi: 1.001,
		},
		{
			Name:     "DES restart read completes",
			Paper:    "few large striped reads",
			Measured: treeRes.ReadTime, Unit: "s", Lo: 1e-9,
		},
	}
	return rep, nil
}

// r1StoreName names the runtime store kind for the table title.
func r1StoreName(opts Options) string {
	name := "memory"
	if storage.Kind(opts.Backend) == storage.KindSDF {
		name = "sdf"
	}
	if opts.Codec != "" {
		name += "+" + opts.Codec
	}
	if opts.Dedup {
		name += "+dedup"
	}
	return name
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// r1Store builds the object store for one runtime run. Memory by
// default; with -backend sdf the objects land on disk under
// BackendDir/fail<i>, ready for `damaris-bench -restart-from`. With
// -codec set the store runs the compression pipeline, making this the
// compressed-store restart round trip: objects are framed on the way
// in and must restore byte-for-byte on the way out.
func r1Store(opts Options, run int) (storage.Backend, error) {
	var be storage.Backend
	if storage.Kind(opts.Backend) == storage.KindSDF {
		dir := opts.BackendDir
		if dir == "" {
			dir = "out/r1-objects"
		}
		sdfBe, err := storage.NewSDF(nil, 4, 1e9, filepath.Join(dir, fmt.Sprintf("fail%d", run)))
		if err != nil {
			return nil, err
		}
		be = sdfBe
	} else {
		be = storage.NewMemory(nil, 4, 1e9)
	}
	if opts.Codec != "" {
		if err := storage.ValidateCodecName(opts.Codec); err != nil {
			return nil, err
		}
		be = storage.NewCompressing(be, storage.CompressionOptions{Codec: opts.Codec})
	}
	if opts.Dedup {
		be = chunk.New(be, chunk.Options{})
	}
	return be, nil
}

// runR1Cluster drives a real cluster through the workload and returns
// its stats; the objects and manifests stay behind in store for the
// restore pass.
func runR1Cluster(nodes, clients, iters int, sched *cluster.FailureSchedule, store storage.ObjectStore) (cluster.Stats, error) {
	cfg, err := meta.ParseString(r1ClusterMeta)
	if err != nil {
		return cluster.Stats{}, err
	}
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "r1", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   2,
		Store:    store,
	}, cluster.RunSpec{
		Meta:     cfg,
		Failures: sched,
	})
	if err != nil {
		return cluster.Stats{}, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	data := make([]byte, 64*8)
	for i := range data {
		data[i] = byte(i)
	}
	for n := 0; n < nodes; n++ {
		for s := 0; s < clients; s++ {
			wg.Add(1)
			go func(n, s int) {
				defer wg.Done()
				cl := c.Client(n, s)
				for it := 0; it < iters; it++ {
					if err := cl.Write("theta", it, data); err != nil {
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
		return cluster.Stats{}, err
	}
	if firstErr != nil {
		return cluster.Stats{}, firstErr
	}
	return c.Stats(), nil
}
