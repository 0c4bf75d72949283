package experiments

import (
	"fmt"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
)

// r1Rates are the node-failure rates swept by the runtime restore side.
var r1Rates = []float64{0, 0.25}

// runR1 exercises the object read path end to end (ROADMAP "object
// read path" item): a runtime cluster writes N iterations of objects
// plus manifests — optionally losing nodes mid-run — then
// cluster.Restore reads everything back and the recovered state is
// compared block-for-block against what the failure semantics say
// survived. The DES side prices the restart read itself (tree-striped
// object reads vs per-node files, the inverse of the write path) and
// contrasts it with the §V.C skip policy, which avoids checkpoint
// reads by dropping data that must then be recomputed.
func runR1(p *Pass, rep *Report) error {
	opts := p.opts

	// Runtime side: write with optional failures, restore, compare.
	const (
		rtNodes   = 8
		rtClients = 2
		rtIters   = 4
		rtFailAt  = rtIters / 2
	)
	stores := make([]storage.Backend, len(r1Rates))
	for i := range stores {
		var err error
		if stores[i], err = r1Store(opts, i); err != nil {
			return err
		}
	}
	rtTable := stats.NewTable(
		fmt.Sprintf("restore-from-objects, %d nodes × %d clients, %d iterations, %s store",
			rtNodes, rtClients, rtIters, stores[0].Name()),
		"fail_rate", "nodes_failed", "blocks_lost", "manifests", "blocks_recovered",
		"recovered_frac", "latest_ckpt", "restore_ms").Measured("restore_ms")

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
		store := stores[i]
		st, _, err := runtimeLeg{
			job: "r1", nodes: rtNodes, clients: rtClients, floats: 64, iters: rtIters,
			cc:   cluster.ClusterConfig{Store: store},
			spec: cluster.RunSpec{Failures: spreadFailures(rtNodes, rate, rtFailAt)},
		}.run()
		if err != nil {
			return err
		}
		restored, restoreWall, err := restoreClean(store, "r1")
		if err != nil {
			return err
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
	desTable := stats.NewTable(
		fmt.Sprintf("DES restart-read model, %d nodes, fanout %d, backend pfs", plat.Nodes, treeFanout),
		"policy", "restart_read_s", "restart_total_s", "read_GB", "loss_frac", "recompute_equiv_s")

	// The DES model here prices the *layout* of the restart read.
	treeCfg := opts.strategyConfig(cores)
	treeCfg.Fanout = treeFanout
	treeRes, err := iostrat.RestartRead(treeCfg)
	if err != nil {
		return err
	}
	desTable.AddRow("restart tree-striped", treeRes.ReadTime, treeRes.TotalTime,
		stats.GB(treeRes.BytesRead), 0.0, 0.0)

	flatRes, err := iostrat.RestartRead(opts.strategyConfig(cores))
	if err != nil {
		return err
	}
	desTable.AddRow("restart per-node files", flatRes.ReadTime, flatRes.TotalTime,
		stats.GB(flatRes.BytesRead), 0.0, 0.0)

	// §V.C skip baseline: a segment too small makes the producer drop
	// iterations; nothing to read back, but the dropped share must be
	// recomputed to reach the same state a checkpoint read restores.
	skipCfg := opts.strategyConfig(cores)
	skipCfg.Fanout = treeFanout
	skipCfg.ShmCapacity = 0.75 * iostrat.CM1Workload(opts.Iterations).NodeBytes(plat.CoresPerNode)
	skipRes, err := p.des(iostrat.Damaris, skipCfg)
	if err != nil {
		return err
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
	latestOK := boolAsFloat(noFail.latestOK && noFail.latest == rtIters-1)
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
	return nil
}

// r1Store builds the object store for one runtime run: memory, or with
// BackendDir set, SDF files under BackendDir/fail<i>, ready for
// `damaris-bench -restart-from`.
func r1Store(opts Options, run int) (storage.Backend, error) {
	if opts.BackendDir == "" {
		return storage.NewMemory(nil, 4, 1e9), nil
	}
	sdf, err := storage.NewSDF(nil, 4, 1e9, filepath.Join(opts.BackendDir, fmt.Sprintf("fail%d", run)))
	if err != nil {
		return nil, err
	}
	return sdf, nil
}
