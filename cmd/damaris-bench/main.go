// Command damaris-bench regenerates the paper's evaluation: every
// quantitative claim of §IV and §V.C is one experiment (see
// docs/EXPERIMENTS.md), and each run prints the corresponding table
// plus shape checks against the published numbers.
//
// Usage:
//
//	damaris-bench                 # run everything at paper scale
//	damaris-bench -exp e1,e3      # select experiments (f1: failure sweep)
//	damaris-bench -quick          # small machine, fast smoke run
//	damaris-bench -iters 8        # more output phases per run
//	damaris-bench -csv out/       # also write each table as CSV
//
// Cluster-layer options (see internal/cluster and internal/storage):
//
//	damaris-bench -nodes 16       # one scale: a 16-node cluster
//	damaris-bench -fanout 4       # cross-node k-ary aggregation tree
//	damaris-bench -backend memory # storage backend: pfs, memory, sdf
//	damaris-bench -fail-nodes 3,5 -fail-at 2   # kill nodes mid-run
//
// Checkpoint/restart (experiment R1 and the object read path):
//
//	damaris-bench -exp r1                          # write + restore sweep
//	damaris-bench -exp r1 -backend sdf -backend-dir out/ckpt   # leave artifacts
//	damaris-bench -restart-from out/ckpt/fail0     # replay a stored run
//
// Compression pipeline (experiment C1 and the -codec option):
//
//	damaris-bench -exp c1                          # codec sweep + adaptive selection
//	damaris-bench -exp r1 -backend sdf -codec adaptive -backend-dir out/ckpt
//	                                               # compressed store, framed objects
//	damaris-bench -restart-from out/ckpt/fail0     # replays compressed stores too
//
// Multi-tenant admission (experiment E9 and cluster.Service):
//
//	damaris-bench -exp e9                          # tenancy × arrival × admission sweep
//	damaris-bench -exp e9 -tenants 48 -arrival 0.1 -admission deadline
//	                                               # pin one sweep point
//
// Streaming in-situ pipeline (experiment E7S and docs/STREAMING.md):
//
//	damaris-bench -exp e7s                         # streaming vs file-then-read, both faces
//	damaris-bench -exp e7s -stream-policy block -stream-buffer 4
//	                                               # pin the slow-consumer legs
//
// Incremental checkpoints (experiment E10 and the -dedup/-retain options):
//
//	damaris-bench -exp e10                         # overwrite-fraction sweep, both faces
//	damaris-bench -dedup                           # dedup chunk store under every run
//	damaris-bench -exp e10 -retain 4               # widen the retention/GC window
//
// Deterministic scenarios and elastic adaptation (experiment E11 and
// docs/SCENARIOS.md):
//
//	damaris-bench -exp e11                         # scenario × {static, adaptive}, both faces
//	damaris-bench -exp e11 -scenario nic-step -adapt adaptive -seed 7
//	                                               # pin one sweep point; any seed replays bit-identically
//	damaris-bench -scenario amr                    # replay an AMR trace under every DES run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/iostrat"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	var (
		expList     = flag.String("exp", "all", "comma-separated experiment ids (e1..e11,e7s,a1,a2,f1,r1,c1) or 'all'")
		quick       = flag.Bool("quick", false, "reduced scale for a fast smoke run")
		seed        = flag.Uint64("seed", 2013, "root seed for all stochastic inputs")
		iters       = flag.Int("iters", 0, "output phases per run (0 = default)")
		platform    = flag.String("platform", "kraken", "platform preset: kraken, grid5000, power5")
		csvDir      = flag.String("csv", "", "directory to write per-table CSV files")
		nodes       = flag.Int("nodes", 0, "replace the weak-scaling sweep with one scale of N nodes")
		fanout      = flag.Int("fanout", 0, "cross-node aggregation tree fanout (>= 2 enables the cluster layer)")
		backend     = flag.String("backend", "pfs", "storage backend: pfs, memory, sdf")
		bdir        = flag.String("backend-dir", "out/sdf-objects", "artifact directory for the sdf backend")
		failNodes   = flag.String("fail-nodes", "", "comma-separated node ids to kill in tree-mode runs")
		failAt      = flag.Int("fail-at", 0, "iteration at which -fail-nodes die")
		codec       = flag.String("codec", "", "storage compression pipeline: none, rle, delta, gorilla, flate, or adaptive")
		sched       = flag.String("sched", "", "dedicated-core write scheduling: none, ost-token, global-token, or cluster-token (E6: cluster-token restricts to the cross-root sweep)")
		restartFrom = flag.String("restart-from", "", "restore a stored run from an sdf object-store directory, report what is recoverable, and exit")
		tenants     = flag.Int("tenants", 0, "E9: tenant jobs per sweep point (0 = default 24)")
		arrival     = flag.Float64("arrival", 0, "E9: job arrival rate in jobs/s (0 = sweep light and heavy)")
		admission   = flag.String("admission", "", "E9: pin the admission policy (fifo, deadline, reject, degrade; empty sweeps all)")
		dedup       = flag.Bool("dedup", false, "wrap every run's backend in the content-addressed dedup chunk store (E10 sweeps its own fractions)")
		retain      = flag.Int("retain", 0, "checkpoint retention window in iterations for runtime runs over a dedup store (0 = keep everything)")
		streamPol   = flag.String("stream-policy", "", "E7S: pin the slow-consumer policy (drop-oldest, block, sample; empty sweeps all on the DES face)")
		streamBuf   = flag.Int("stream-buffer", 0, "E7S: per-subscriber queue capacity in iterations for the slow-consumer legs (0 = 1)")
		scenario    = flag.String("scenario", "", "replay a deterministic workload scenario in every DES run (steady, bursty, amr, particle-mix, weak-ladder, strong-ladder, nic-step, pfs-step, node-churn; E11 sweeps all unless pinned)")
		adapt       = flag.String("adapt", "", "mid-run tree adaptation policy for scenario runs: static or adaptive (E11 sweeps both unless pinned)")
	)
	flag.Parse()

	if *restartFrom != "" {
		if err := restoreReport(*restartFrom); err != nil {
			fmt.Fprintf(os.Stderr, "restart-from: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Seed = *seed
	opts.Platform = *platform
	if *iters > 0 {
		opts.Iterations = *iters
	}
	opts.Fanout = *fanout
	opts.Backend = *backend
	opts.BackendDir = *bdir
	opts.FailAt = *failAt
	if *codec != "" && *codec != "none" {
		if err := storage.ValidateCodecName(*codec); err != nil {
			fmt.Fprintf(os.Stderr, "bad -codec: %v\n", err)
			os.Exit(2)
		}
		opts.Codec = *codec
	}
	if *sched != "" {
		if err := iostrat.ValidateScheduling(iostrat.Scheduling(*sched)); err != nil {
			fmt.Fprintf(os.Stderr, "bad -sched: %v\n", err)
			os.Exit(2)
		}
		opts.Scheduling = iostrat.Scheduling(*sched)
	}
	opts.Dedup = *dedup
	opts.Retain = *retain
	if *streamPol != "" {
		if err := storage.ValidateSlowPolicy(*streamPol); err != nil {
			fmt.Fprintf(os.Stderr, "bad -stream-policy: %v\n", err)
			os.Exit(2)
		}
		opts.StreamPolicy = *streamPol
	}
	opts.StreamBuffer = *streamBuf
	if *scenario != "" {
		if err := workload.ValidateScenario(*scenario); err != nil {
			fmt.Fprintf(os.Stderr, "bad -scenario: %v\n", err)
			os.Exit(2)
		}
		opts.Scenario = *scenario
	}
	if *adapt != "" {
		if err := iostrat.ValidateAdaptPolicy(iostrat.AdaptPolicy(*adapt)); err != nil {
			fmt.Fprintf(os.Stderr, "bad -adapt: %v\n", err)
			os.Exit(2)
		}
		opts.Adapt = *adapt
	}
	opts.Tenants = *tenants
	opts.ArrivalRate = *arrival
	if *admission != "" {
		if err := cluster.ValidateAdmissionPolicy(cluster.AdmissionPolicy(*admission)); err != nil {
			fmt.Fprintf(os.Stderr, "bad -admission: %v\n", err)
			os.Exit(2)
		}
		opts.Admission = cluster.AdmissionPolicy(*admission)
	}
	if *failNodes != "" {
		for _, part := range strings.Split(*failNodes, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -fail-nodes entry %q\n", part)
				os.Exit(2)
			}
			opts.FailNodes = append(opts.FailNodes, id)
		}
		if opts.Fanout < 2 {
			opts.Fanout = 2 // failures live in the aggregation tree
		}
	}
	if *nodes > 0 {
		plat, ok := topology.ByName(*platform, *nodes)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
			os.Exit(2)
		}
		opts.Scales = []int{plat.Cores()}
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*expList, ",") {
		selected[strings.ToLower(strings.TrimSpace(id))] = true
	}
	all := selected["all"]

	failures := 0
	for _, r := range experiments.Registry() {
		if !all && !selected[r.ID] {
			continue
		}
		start := time.Now()
		rep, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			failures++
			continue
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", rep.ID, time.Since(start).Seconds())
		if !rep.AllPass() {
			failures++
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) with checks outside the paper band\n", failures)
		os.Exit(1)
	}
}

// restoreReport reads a stored run back from an SDF object-store
// directory (e.g. one left behind by `-exp r1 -backend sdf` or any
// cluster run with an sdf store) and prints what is recoverable: the
// checkpoint/restart consumer's view of the object read path.
func restoreReport(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	sdfStore, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		return err
	}
	// One code path replays compressed, deduplicated and raw stores alike.
	r, err := cluster.Restore(chunk.ReadStack(sdfStore), "")
	if err != nil {
		return err
	}
	if r.Manifests == 0 {
		return fmt.Errorf("no manifests under %s — nothing to restart from", dir)
	}
	// The cluster size is not stored anywhere except the data itself:
	// infer it from the widest coverage any iteration achieved.
	nodes := 0
	for _, ri := range r.Iterations {
		for n := range ri.Covers {
			if n+1 > nodes {
				nodes = n + 1
			}
		}
	}
	fmt.Printf("restore from %s: %d manifests, %d iterations, %d blocks, %d-node cluster (inferred)\n",
		dir, r.Manifests, len(r.Iterations), r.TotalBlocks(), nodes)
	for _, it := range r.IterationNumbers() {
		ri := r.Iterations[it]
		status := "complete"
		switch {
		case ri.PayloadMissing:
			status = "payload missing"
		case ri.Partial:
			status = "partial"
		case len(ri.Covers) < nodes:
			status = fmt.Sprintf("%d/%d nodes", len(ri.Covers), nodes)
		}
		fmt.Printf("  it %6d: %4d blocks, coverage %.2f, %s\n",
			it, len(ri.Blocks), float64(len(ri.Covers))/float64(nodes), status)
	}
	if it, ok := r.LatestComplete(nodes); ok {
		fmt.Printf("restartable from iteration %d\n", it)
	} else {
		fmt.Println("no fully-complete checkpoint; restart would lose data")
	}
	for _, p := range r.Problems {
		fmt.Printf("  problem: %v\n", p)
	}
	return nil
}

func writeCSVs(dir string, rep experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range rep.Tables {
		name := fmt.Sprintf("%s_table%d.csv", strings.ToLower(rep.ID), i+1)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
