// Command damaris-bench regenerates the paper's evaluation: every
// quantitative claim of §IV and §V.C is one experiment (see
// docs/EXPERIMENTS.md), and each run prints the corresponding table
// plus shape checks against the published numbers.
//
// Usage:
//
//	damaris-bench                 # run everything at paper scale
//	damaris-bench -exp e1,e3      # select experiments (f1: failure sweep)
//	damaris-bench -iters 8        # more output phases per run
//	damaris-bench -nodes 16       # one scale: a 16-node cluster
//	damaris-bench -csv out/       # also write each table as CSV
//
// Each experiment runs one fixed design on the paper's machine, Kraken
// up to 9216 cores; these flags change only its size, seed and machine
// (-platform). The checks are the paper's bands at that machine, so a
// run at another size MISSes some of them and exits 1.
//
// Checkpoint/restart (experiment R1 and the object read path):
//
//	damaris-bench -exp r1 -backend-dir out/ckpt   # leave R1's objects as SDF files
//	damaris-bench -restart-from out/ckpt/fail0    # replay a stored run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

func main() {
	var (
		expList     = flag.String("exp", "all", "comma-separated experiment ids (e1..e11,e7s,a1,a2,f1,r1,c1) or 'all'")
		seed        = flag.Uint64("seed", 2013, "root seed for all stochastic inputs")
		iters       = flag.Int("iters", 0, "output phases per run (0 = default)")
		platform    = flag.String("platform", "kraken", "platform preset: kraken, grid5000, power5")
		csvDir      = flag.String("csv", "", "directory to write per-table CSV files")
		nodes       = flag.Int("nodes", 0, "replace the weak-scaling sweep with one scale of N nodes")
		bdir        = flag.String("backend-dir", "", "R1: store the runtime objects as SDF files under DIR/fail<i> (empty = memory)")
		restartFrom = flag.String("restart-from", "", "restore a stored run from an sdf object-store directory, report what is recoverable, and exit")
	)
	flag.Parse()

	if *restartFrom != "" {
		if err := restoreReport(*restartFrom); err != nil {
			fmt.Fprintf(os.Stderr, "restart-from: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// The pass fills in what is left zero from experiments.Default().
	opts := experiments.Options{Seed: *seed, Platform: *platform, BackendDir: *bdir}
	if *iters > 0 {
		opts.Iterations = *iters
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
	pass := experiments.NewPass(opts)
	for _, r := range experiments.Registry() {
		if !all && !selected[r.ID] {
			continue
		}
		start := time.Now()
		rep, err := pass.Run(r)
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
				fmt.Fprintf(os.Stderr, "%s: csv: %v\n", r.ID, err)
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) failed: an error, a check outside the paper band or an unwritten CSV\n", failures)
		os.Exit(1)
	}
}

// restoreReport reads a stored run back from an SDF object-store
// directory (e.g. one left behind by `-exp r1 -backend-dir DIR` or any
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
