package experiments

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runE11 sweeps the deterministic workload scenarios of
// internal/workload against the two tree-adaptation policies, on both
// faces (docs/SCENARIOS.md has the vocabulary):
//
//   - DES face: every scenario × {static, adaptive} through the Damaris
//     strategy in tree mode, the trace driving per-iteration volumes,
//     compute cadence, bandwidth steps, and node churn in virtual time;
//   - runtime face: a real cluster replays a NIC-step trace with a
//     streaming subscriber attached, re-forming the tree mid-run on the
//     recommendation of the same cluster.Adapter the DES face steers by.
//
// The headline checks: the same seed replays bit-identically, adaptive
// beats static on aggregate write latency on a mid-run platform shift,
// and adaptation never loses acknowledged data — Completeness stays 1
// on every scenario that injects no failures.
func runE11(p *Pass, rep *Report) error {
	opts := p.opts

	// The generators place their mid-run shifts around n/3 and the
	// adaptation cooldown needs headroom after that; the paper's 4
	// output phases would end before the step can matter.
	iters := opts.Iterations
	if iters < 8 {
		iters = 8
	}
	cores := opts.Scales[0]
	desCfg := func(sc string, pol iostrat.AdaptPolicy) (iostrat.Config, error) {
		cfg := opts.strategyConfig(cores)
		cfg.Fanout = treeFanout
		tr, err := workload.Generate(workload.Spec{
			Scenario:   sc,
			Seed:       opts.Seed,
			Iterations: iters,
			Nodes:      cfg.Platform.Nodes,
		})
		if err != nil {
			return iostrat.Config{}, err
		}
		cfg.Scenario = tr
		cfg.Adapt = pol
		return cfg, nil
	}

	// ---- DES face: scenario × policy sweep. ----
	type legKey struct {
		sc  string
		pol iostrat.AdaptPolicy
	}
	results := map[legKey]iostrat.Result{}
	des := stats.NewTable(
		fmt.Sprintf("DES face: scenario × adaptation at %d cores, %d iterations", cores, iters),
		"scenario", "adapt", "median_write_latency_s", "bytes_written_gb",
		"tree_reforms", "min_completeness", "skipped")
	for _, sc := range workload.Scenarios() {
		for _, pol := range iostrat.AdaptPolicies() {
			cfg, err := desCfg(sc, pol)
			if err != nil {
				return err
			}
			res, err := p.des(iostrat.Damaris, cfg)
			if err != nil {
				return fmt.Errorf("e11 %s/%s: %w", sc, pol, err)
			}
			results[legKey{sc, pol}] = res
			// Median, not mean: per-iteration latency is a max over
			// concurrent stripe streams, so a single heavy-tailed PFS
			// straggler episode can dominate a mean; the median ranks
			// the topologies, which is what this table compares.
			des.AddRow(sc, string(pol), stats.Median(res.TreeWriteLatencies),
				stats.GB(res.BytesWritten), res.TreeReforms,
				slices.Min(res.Completeness), res.SkippedIters)
		}
	}
	rep.Tables = append(rep.Tables, des)

	// ---- Determinism: the same seed must replay bit-identically, on
	// the scenario with the most moving parts. ----
	replaySc, replayPol := workload.NICStep, iostrat.AdaptAdaptive
	cfgA, err := desCfg(replaySc, replayPol)
	if err != nil {
		return err
	}
	cfgB, err := desCfg(replaySc, replayPol)
	if err != nil {
		return err
	}
	fpStable := boolAsFloat(cfgA.Scenario.Fingerprint() == cfgB.Scenario.Fingerprint())
	again, err := p.des(iostrat.Damaris, cfgB)
	if err != nil {
		return err
	}
	first := results[legKey{replaySc, replayPol}]
	identical := boolAsFloat(first.TotalTime == again.TotalTime && first.DrainTime == again.DrainTime &&
		first.BytesWritten == again.BytesWritten && first.TreeReforms == again.TreeReforms &&
		slices.Equal(first.TreeWriteLatencies, again.TreeWriteLatencies))
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "trace generation is a pure function of the seed",
			Paper:    "deterministic scenario generator (docs/SCENARIOS.md)",
			Measured: fpStable, Unit: "bool", Lo: 1, Hi: 1,
		},
		Check{
			Name:     fmt.Sprintf("DES replay bit-identical (%s/%s)", replaySc, replayPol),
			Paper:    "same seed, same trace, same measurements",
			Measured: identical, Unit: "bool", Lo: 1, Hi: 1,
		})

	// ---- Loss accounting across the sweep. ----
	minComp, maxLost := 1.0, 0.0
	for key, res := range results {
		if key.sc == workload.NodeChurn {
			continue // churn injects real failures; F1 owns that accounting
		}
		if c := slices.Min(res.Completeness); c < minComp {
			minComp = c
		}
		if res.LostBytes > maxLost {
			maxLost = res.LostBytes
		}
	}
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "completeness 1 absent injected failures",
			Paper:    "adaptation never loses acknowledged data",
			Measured: minComp, Unit: "fraction", Lo: 1, Hi: 1,
		},
		Check{
			Name:     "no bytes lost absent injected failures",
			Paper:    "epoch fence preserves in-flight iterations",
			Measured: maxLost, Unit: "bytes", Lo: 0, Hi: 1e-9,
		})

	// ---- Adaptive vs static on a mid-run platform shift. ----
	st := results[legKey{workload.NICStep, iostrat.AdaptStatic}]
	ad := results[legKey{workload.NICStep, iostrat.AdaptAdaptive}]
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "adaptive re-forms on the NIC step",
			Paper:    "topology follows observed bandwidth",
			Measured: float64(ad.TreeReforms), Unit: "reforms", Lo: 1,
		},
		Check{
			Name:     "static control never re-forms",
			Paper:    "fixed topology is the baseline",
			Measured: float64(st.TreeReforms), Unit: "reforms", Lo: 0, Hi: 1e-9,
		},
		Check{
			Name:     "adaptive write-latency advantage on the NIC step",
			Paper:    "re-formed tree beats the stale shape",
			Measured: stats.Median(st.TreeWriteLatencies) / stats.Median(ad.TreeWriteLatencies),
			Unit:     "x", Lo: 1.001,
		},
		Check{
			Name:     "adaptation leaves stored volume unchanged",
			Paper:    "same data, different route",
			Measured: ad.BytesWritten / st.BytesWritten,
			Unit:     "x", Lo: 0.999, Hi: 1.001,
		})

	// ---- Runtime face: real goroutines, mid-run re-formation. ----
	rt, err := runE11Cluster(opts.Seed)
	if err != nil {
		return fmt.Errorf("e11 runtime: %w", err)
	}
	rtTab := stats.NewTable(
		"runtime face: NIC-step trace replay with streaming subscriber",
		"leg", "tree_reforms", "epochs", "blocks_stored", "blocks_expected",
		"stream_frames", "min_completeness")
	rtTab.AddRow("adaptive", rt.reforms, rt.epochs, rt.blocks, rt.want, rt.frames, rt.minComp)
	rep.Tables = append(rep.Tables, rtTab)
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "runtime: every acknowledged block stored once",
			Paper:    "re-formation preserves in-flight mailboxes",
			Measured: float64(rt.blocks), Unit: "blocks",
			Lo: float64(rt.want), Hi: float64(rt.want),
		},
		Check{
			Name:     "runtime: completeness 1 through re-formation",
			Paper:    "adaptation never loses acknowledged data",
			Measured: rt.minComp, Unit: "fraction", Lo: 1, Hi: 1,
		},
		Check{
			Name:     "runtime: streaming survives re-formation",
			Paper:    "composes with the streaming hooks",
			Measured: float64(rt.frames), Unit: "frames", Lo: 1,
		},
		Check{
			Name:     "runtime: adaptive leg re-formed the tree",
			Paper:    "topology follows observed bandwidth",
			Measured: float64(rt.reforms), Unit: "reforms", Lo: 1,
		})
	return nil
}

// e11Run is one runtime-face measurement.
type e11Run struct {
	reforms int
	epochs  int
	blocks  int     // blocks restored from the store
	want    int     // blocks acknowledged by clients
	frames  int     // streaming frames delivered across re-formations
	minComp float64 // worst per-iteration completeness
}

// runE11Cluster replays a NIC-step trace on a real cluster: every
// client writes each iteration, a streaming subscriber consumes merged
// batches throughout, and a cluster.Adapter, the controller the DES face
// steers by, is fed the trace's bandwidths and re-forms the topology
// through Cluster.Adapt.
func runE11Cluster(seed uint64) (e11Run, error) {
	const nodes, clients, iters = 8, 2, 8
	tr, err := workload.Generate(workload.Spec{
		Scenario:   workload.NICStep,
		Seed:       seed,
		Iterations: iters,
		Nodes:      nodes,
	})
	if err != nil {
		return e11Run{}, err
	}
	mem := storage.NewMemory(nil, 4, 1e9)
	stream := storage.NewStream()
	run := e11Run{want: nodes * clients * iters}
	consumed := consumeStream(stream.Subscribe(storage.SubOptions{Buffer: nodes * iters}),
		func(*cluster.Batch) { run.frames++ })

	// The controller models the simulated job — kraken-class nominal
	// bandwidths scaled by the trace's cumulative shift factors, and the
	// trace's own per-node volume — not the toy payload the clients write.
	nominal := topology.Kraken(nodes)
	ad := cluster.NewAdapter(nodes, nominal.PFS.OSTs, iters, nominal.NICBandwidth, nominal.PFS.OSTBandwidth,
		func(it int) float64 { return tr.Iters[it].BytesPerCore * float64(nominal.CoresPerNode) })
	st, _, err := runtimeLeg{
		job: "e11", nodes: nodes, clients: clients, floats: 512, iters: iters,
		cc: cluster.ClusterConfig{Fanout: 2, Roots: 1, Store: mem},
		spec: cluster.RunSpec{
			Hooks:    []cluster.Hook{cluster.NewStreamingHook(stream)},
			Failures: cluster.NewFailureSchedule().WithTrace(tr),
		},
		each: func(c *cluster.Cluster, it int) error {
			// Iteration it is settled: what its transfers ran at is one
			// observation each, a shift that landed in it a disturbance.
			if len(tr.ShiftsAt(it)) > 0 {
				ad.Disturb()
			}
			ad.ObserveNIC(nominal.NICBandwidth * tr.NICFactorAt(it))
			ad.ObservePFS(nominal.PFS.OSTBandwidth * tr.PFSFactorAt(it))
			if err := c.Adapt(ad, it); err != nil {
				return err
			}
			run.epochs = c.Epochs()
			return nil
		},
	}.run()
	stream.Close()
	if cerr := consumed(); err == nil {
		err = cerr
	}
	if err != nil {
		return e11Run{}, err
	}

	restored, _, err := restoreClean(mem, "e11")
	if err != nil {
		return e11Run{}, err
	}
	run.blocks = restored.TotalBlocks()
	run.reforms = st.TreeReforms
	run.minComp = 1
	for _, frac := range st.Completeness {
		run.minComp = min(run.minComp, frac)
	}
	return run, nil
}
