package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/meta"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topology"
)

// f1Rates are the node-failure rates swept by F1.
var f1Rates = []float64{0, 0.15, 0.3}

// f1ShmFactors size the shared-memory segment (× one iteration's node
// output) for the §V.C skip-policy baseline rows: at 1.0 the segment
// holds exactly one pending iteration, below it every offer fails.
var f1ShmFactors = []float64{1.0, 0.75}

// f1ClusterMeta is the per-node configuration of the runtime-cluster
// side of the sweep: one 512-byte variable per client.
const f1ClusterMeta = `<simulation name="f1">
  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
  <data>
    <parameter name="n" value="64"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

// RunF1 measures the data-loss / end-to-end-latency trade of losing
// aggregation nodes (ROADMAP open item 1): a seeded random failure
// schedule kills nodes mid-iteration, the tree re-routes their
// children, and the loss is compared against the paper's §V.C skip
// policy, which also trades data for latency but from the producer
// side. The sweep runs on both the DES tree-mode Damaris strategy and
// the runtime cluster layer, so the simulated and real re-routing
// arithmetic are exercised side by side.
func RunF1(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{ID: "F1", Title: "node-failure injection and subtree re-routing"}
	cores := opts.maxScale()
	plat := opts.platformFor(cores)
	fanout := opts.Fanout
	if fanout < 2 {
		fanout = 4
	}

	desTable := stats.NewTable(
		fmt.Sprintf("DES tree-mode Damaris under node failures, %d nodes, fanout %d",
			plat.Nodes, fanout),
		"policy", "fail_rate", "nodes_failed", "rerouted_edges", "loss_frac",
		"total_s", "drain_s", "written_GB")

	desCfg := func() iostrat.Config {
		cfg := opts.strategyConfig(cores)
		cfg.Fanout = fanout
		return cfg
	}

	type desRun struct {
		rate float64
		res  iostrat.Result
	}
	var desRuns []desRun
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
		res, err := iostrat.Run(iostrat.Damaris, cfg)
		if err != nil {
			return Report{}, err
		}
		desRuns = append(desRuns, desRun{rate: rate, res: res})
		desTable.AddRow("failure+reroute", rate, res.NodesFailed, res.ReroutedEdges,
			res.DataLossFraction(), res.TotalTime, res.DrainTime, stats.GB(res.BytesWritten))
	}
	// The §V.C skip-policy baseline: no failures, but a segment small
	// enough that the producer side drops iterations instead.
	nodeBytes := iostrat.CM1Workload(opts.Iterations).NodeBytes(plat.CoresPerNode)
	for _, factor := range f1ShmFactors {
		cfg := desCfg()
		cfg.ShmCapacity = factor * nodeBytes
		res, err := iostrat.Run(iostrat.Damaris, cfg)
		if err != nil {
			return Report{}, err
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
		"partial_iters", "wall_ms")

	type rtRun struct {
		rate  float64
		sched *cluster.FailureSchedule
		st    cluster.Stats
	}
	var rtRuns []rtRun
	for _, rate := range f1Rates {
		sched := cluster.NewFailureSchedule()
		for k := 0; k < int(rate*rtNodes+0.5); k++ {
			// Spread the deaths over the tree, skipping node 0 so at
			// least one original root survives every rate.
			sched.Add(1+(k*3)%(rtNodes-1), rtFailAt)
		}
		st, wall, err := runF1Cluster(rtNodes, rtClients, rtIters, sched)
		if err != nil {
			return Report{}, err
		}
		rtRuns = append(rtRuns, rtRun{rate: rate, sched: sched, st: st})
		rtTable.AddRow(rate, st.NodesFailed, st.ReroutedEdges, st.BlocksLost,
			f1ClusterLoss(st, rtNodes, rtIters), st.PartialIterations,
			float64(wall.Microseconds())/1e3)
	}
	rep.Tables = []*stats.Table{desTable, rtTable}

	top := desRuns[len(desRuns)-1]
	failedShare := float64(top.res.NodesFailed) / float64(plat.Nodes)
	lossOverShare := 0.0
	if failedShare > 0 {
		lossOverShare = top.res.DataLossFraction() / failedShare
	}
	rtTop := rtRuns[len(rtRuns)-1]
	rtShare := float64(rtTop.st.NodesFailed) / float64(rtNodes)
	rtLossOverShare := 0.0
	if rtShare > 0 {
		rtLossOverShare = f1ClusterLoss(rtTop.st, rtNodes, rtIters) / rtShare
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
			Measured: desRuns[0].res.DataLossFraction(), Unit: "", Lo: 0, Hi: 1e-12,
		},
		{
			Name:     "DES loss at top failure rate",
			Paper:    "node deaths lose only the dead nodes' output",
			Measured: top.res.DataLossFraction(), Unit: "", Lo: 1e-6, Hi: 0.9,
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
	return rep, nil
}

// f1ClusterLoss is the data-loss fraction of a runtime cluster run: the
// node-iterations whose blocks never reached a stored root object.
func f1ClusterLoss(st cluster.Stats, nodes, iters int) float64 {
	covered := 0.0
	for it := 0; it < iters; it++ {
		covered += st.Completeness[it]
	}
	return 1 - covered/float64(iters)
}

// runF1Cluster builds a real cluster, drives every client through the
// workload, and returns the final stats and the wall-clock time of the
// run (the runtime side's end-to-end latency).
func runF1Cluster(nodes, clients, iters int, sched *cluster.FailureSchedule) (cluster.Stats, time.Duration, error) {
	cfg, err := meta.ParseString(f1ClusterMeta)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "f1", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   2,
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, cluster.RunSpec{
		Meta:     cfg,
		Failures: sched,
	})
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	start := time.Now()
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
	wall := time.Since(start)
	if err := c.Shutdown(); err != nil {
		return cluster.Stats{}, 0, err
	}
	if firstErr != nil {
		return cluster.Stats{}, 0, firstErr
	}
	return c.Stats(), wall, nil
}
