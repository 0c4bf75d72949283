package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
)

// f1Rates are the node-failure rates swept by F1.
var f1Rates = []float64{0, 0.15, 0.3}

// f1ShmFactors size the shared-memory segment (× one iteration's node
// output) for the §V.C skip-policy baseline rows: at 1.0 the segment
// holds exactly one pending iteration, below it every offer fails.
var f1ShmFactors = []float64{1.0, 0.75}

// runF1 measures the data-loss / end-to-end-latency trade of losing
// aggregation nodes (ROADMAP open item 1): a seeded random failure
// schedule kills nodes mid-iteration, the tree re-routes their
// children, and the loss is compared against the paper's §V.C skip
// policy, which also trades data for latency but from the producer
// side. The sweep runs on both the DES tree-mode Damaris strategy and
// the runtime cluster layer, so the simulated and real re-routing
// arithmetic are exercised side by side.
func runF1(p *Pass, rep *Report) error {
	opts := p.opts
	cores := opts.maxScale()
	plat := opts.platformFor(cores)

	desTable := stats.NewTable(
		fmt.Sprintf("DES tree-mode Damaris under node failures, %d nodes, fanout %d",
			plat.Nodes, treeFanout),
		"policy", "fail_rate", "nodes_failed", "rerouted_edges", "loss_frac",
		"total_s", "drain_s", "written_GB")

	desCfg := func() iostrat.Config {
		cfg := opts.strategyConfig(cores)
		cfg.Fanout = treeFanout
		return cfg
	}

	var desRuns []iostrat.Result
	for i, rate := range f1Rates {
		cfg := desCfg()
		sched := cluster.RandomFailures(plat.Nodes, opts.Iterations, rate,
			opts.Seed+uint64(i)*7919)
		if sched.Empty() && rate > 0 {
			// The random draw can miss at small node counts; the sweep
			// still needs a death to measure.
			sched.Add(plat.Nodes/3, opts.Iterations/2)
		}
		cfg.Failures = sched
		res, err := p.des(iostrat.Damaris, cfg)
		if err != nil {
			return err
		}
		desRuns = append(desRuns, res)
		desTable.AddRow("failure+reroute", rate, res.NodesFailed, res.ReroutedEdges,
			res.DataLossFraction(), res.TotalTime, res.DrainTime, stats.GB(res.BytesWritten))
	}
	// The §V.C skip-policy baseline: no failures, but a segment small
	// enough that the producer side drops iterations instead.
	nodeBytes := iostrat.CM1Workload(opts.Iterations).NodeBytes(plat.CoresPerNode)
	for _, factor := range f1ShmFactors {
		cfg := desCfg()
		cfg.ShmCapacity = factor * nodeBytes
		res, err := p.des(iostrat.Damaris, cfg)
		if err != nil {
			return err
		}
		desTable.AddRow(fmt.Sprintf("skip-policy shm=%.2fx", factor), 0.0,
			0, 0, res.DataLossFraction(), res.TotalTime, res.DrainTime,
			stats.GB(res.BytesWritten))
	}

	// Runtime cluster side: a small real deployment per rate, killing
	// round(rate × nodes) nodes mid-run.
	const (
		rtNodes   = 8
		rtClients = 2
		rtIters   = 4
		rtFailAt  = rtIters / 2
	)
	rtTable := stats.NewTable(
		fmt.Sprintf("runtime cluster under node failures, %d nodes × %d clients, %d iterations",
			rtNodes, rtClients, rtIters),
		"fail_rate", "nodes_failed", "rerouted_edges", "blocks_lost", "loss_frac",
		"partial_iters", "wall_ms").Measured("wall_ms")

	type rtRun struct {
		sched *cluster.FailureSchedule
		st    cluster.Stats
	}
	var rtRuns []rtRun
	for _, rate := range f1Rates {
		sched := spreadFailures(rtNodes, rate, rtFailAt)
		st, wall, err := runtimeLeg{
			job: "f1", nodes: rtNodes, clients: rtClients, floats: 64, iters: rtIters,
			cc:   cluster.ClusterConfig{Store: storage.NewMemory(nil, 4, 1e9)},
			spec: cluster.RunSpec{Failures: sched},
			// Lockstep: deaths scheduled for one iteration happen in node
			// order, so rerouted_edges is the schedule's, run after run.
			each: func(*cluster.Cluster, int) error { return nil },
		}.run()
		if err != nil {
			return err
		}
		rtRuns = append(rtRuns, rtRun{sched: sched, st: st})
		rtTable.AddRow(rate, st.NodesFailed, st.ReroutedEdges, st.BlocksLost,
			f1ClusterLoss(st, rtIters), st.PartialIterations,
			float64(wall.Microseconds())/1e3)
	}
	rep.Tables = []*stats.Table{desTable, rtTable}

	top := desRuns[len(desRuns)-1]
	failedShare := float64(top.NodesFailed) / float64(plat.Nodes)
	lossOverShare := 0.0
	if failedShare > 0 {
		lossOverShare = top.DataLossFraction() / failedShare
	}
	rtTop := rtRuns[len(rtRuns)-1]
	rtShare := float64(rtTop.st.NodesFailed) / float64(rtNodes)
	rtLossOverShare := 0.0
	if rtShare > 0 {
		rtLossOverShare = f1ClusterLoss(rtTop.st, rtIters) / rtShare
	}
	rtCompleted := 1.0
	for _, r := range rtRuns {
		frac := float64(r.st.IterationsCompleted) / float64(rtIters)
		if frac < rtCompleted {
			rtCompleted = frac
		}
		if r.st.NodesFailed != r.sched.Len() {
			rtCompleted = 0 // a scheduled death that never happened
		}
	}
	rep.Checks = []Check{
		{
			Name:     "DES loss without failures",
			Paper:    "re-routing is free when nothing fails",
			Measured: desRuns[0].DataLossFraction(), Unit: "", Lo: 0, Hi: 1e-12,
		},
		{
			Name:     "DES loss at top failure rate",
			Paper:    "node deaths lose only the dead nodes' output",
			Measured: top.DataLossFraction(), Unit: "", Lo: 1e-6, Hi: 0.9,
		},
		{
			Name:     "DES loss / dead-node share",
			Paper:    "re-routed subtrees keep flowing (≤ 1)",
			Measured: lossOverShare, Unit: "", Lo: 0, Hi: 1.001,
		},
		{
			Name:     "runtime loss / dead-node share",
			Paper:    "runtime re-routing matches the model (≤ 1)",
			Measured: rtLossOverShare, Unit: "", Lo: 0, Hi: 1.001,
		},
		{
			Name:     "runtime iterations completed under failures",
			Paper:    "no deadlock: every live root finishes every iteration",
			Measured: rtCompleted, Unit: "", Lo: 1, Hi: 1,
		},
	}
	return nil
}

// f1ClusterLoss is the data-loss fraction of a runtime cluster run: the
// node-iterations whose blocks never reached a stored root object.
func f1ClusterLoss(st cluster.Stats, iters int) float64 {
	covered := 0.0
	for it := 0; it < iters; it++ {
		covered += st.Completeness[it]
	}
	return 1 - covered/float64(iters)
}
