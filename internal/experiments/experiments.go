// Package experiments implements the reproduction harness: one runner per
// quantitative claim of the paper's evaluation (§IV and §V.C), each
// producing the table/series the paper reports plus a set of checks
// comparing the measured shape against the published one.
//
// Experiment IDs (docs/EXPERIMENTS.md has the full index):
//
//	E1 weak-scaling run time (§IV.A)     E5 compression (§IV.D)
//	E2 I/O variability (§IV.B)           E6 I/O scheduling (§IV.D)
//	E3 aggregate throughput (§IV.C)      E7 in-situ visualization (§V.C.1)
//	E4 dedicated-core idle time (§IV.D)  E8 usability LoC (§V.C.2)
//	A1/A2 design-choice ablations        F1 node failures, R1 restart
//	E9 multi-tenant admission (cluster.Service + DES service model)
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Options control the scale of an experiment run.
type Options struct {
	// Seed is the root seed for every stochastic input.
	Seed uint64
	// Iterations is the number of compute+output cycles per run.
	Iterations int
	// Scales lists the total core counts of the weak-scaling sweep.
	Scales []int
	// Platform names the preset machine (default "kraken").
	Platform string
	// Backend selects the storage backend the strategies write through
	// ("pfs" default, "memory", "sdf") — see internal/storage.
	Backend string
	// BackendDir is the artifact directory for the sdf backend.
	BackendDir string
	// Fanout, when >= 2, routes the Damaris strategy through the
	// cross-node aggregation tree of internal/cluster instead of the
	// one-file-per-node baseline.
	Fanout int
	// FailNodes lists node ids to kill at iteration FailAt in every
	// tree-mode Damaris run (the -fail-nodes/-fail-at bench flags).
	// F1 sweeps its own failure rates regardless of these.
	FailNodes []int
	// FailAt is the death iteration for FailNodes (default 0).
	FailAt int
	// Codec enables the storage compression pipeline (the -codec bench
	// flag): a codec name fixes the codec for every strategy run and
	// the R1/C1 runtime stores, "adaptive" selects per dataset, ""
	// disables it. C1 sweeps its own codecs regardless of this.
	Codec string
	// Dedup wraps every run's backend in the content-addressed chunk
	// store (the -dedup bench flag): DES runs charge chunk/hash CPU and
	// forward only the assumed-new volume; runtime stores actually
	// deduplicate. E10 sweeps its own overwrite fractions regardless.
	Dedup bool
	// Retain is the checkpoint retention window in iterations for
	// runtime cluster runs over a dedup store (the -retain bench flag;
	// 0 = keep everything). E10's GC leg uses it (default 2 there).
	Retain int
	// Scheduling coordinates dedicated-core writes in every Damaris run
	// (the -sched bench flag): "", "none", "ost-token", "global-token"
	// or "cluster-token". E6 sweeps its own policies regardless; set to
	// cluster-token it restricts E6 to the cross-root sweep (the CI
	// matrix's cross-root mode).
	Scheduling iostrat.Scheduling
	// Tenants is the number of tenant jobs E9 submits per sweep point
	// (the -tenants bench flag; default 24 — E9 also sweeps half that).
	Tenants int
	// ArrivalRate pins E9's job arrival rate in jobs per second (the
	// -arrival bench flag); 0 sweeps a light and a heavy rate.
	ArrivalRate float64
	// Admission restricts E9's policy sweep to one admission policy
	// (the -admission bench flag: fifo, deadline, reject, degrade);
	// empty sweeps all four and runs the cross-policy checks.
	Admission cluster.AdmissionPolicy
	// StreamPolicy pins E7S's slow-consumer policy (the -stream-policy
	// bench flag: drop-oldest, block, sample); empty runs drop-oldest
	// on the runtime face and sweeps all three on the DES face.
	StreamPolicy string
	// StreamBuffer is the per-subscriber queue capacity in iterations
	// for E7S's slow-consumer legs (the -stream-buffer bench flag;
	// 0 = 1, the tightest bound on staleness).
	StreamBuffer int
	// Scenario names a workload generator (the -scenario bench flag;
	// see internal/workload and docs/SCENARIOS.md): every DES strategy
	// run then replays the trace deterministically generated from Seed
	// for the run's node count, in tree mode. E11 sweeps all scenarios
	// unless this pins one.
	Scenario string
	// Adapt selects the mid-run tree adaptation policy for scenario
	// runs (the -adapt bench flag: "static" or "adaptive"). E11 sweeps
	// both unless this pins one.
	Adapt string
}

// Default returns the paper-scale options: the Kraken sweep up to 9216
// cores.
func Default() Options {
	return Options{
		Seed:       2013,
		Iterations: 4,
		Scales:     []int{576, 1152, 2304, 4608, 9216},
		Platform:   "kraken",
	}
}

// Quick returns reduced options for tests: a small machine, few phases.
func Quick() Options {
	return Options{
		Seed:       2013,
		Iterations: 2,
		Scales:     []int{96, 192},
		Platform:   "kraken",
	}
}

func (o Options) withDefaults() Options {
	d := Default()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Iterations == 0 {
		o.Iterations = d.Iterations
	}
	if len(o.Scales) == 0 {
		o.Scales = d.Scales
	}
	if o.Platform == "" {
		o.Platform = d.Platform
	}
	return o
}

// platformFor resolves the preset and resizes it so that the total core
// count equals the requested scale.
func (o Options) platformFor(cores int) topology.Platform {
	p, ok := topology.ByName(o.Platform, 1)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown platform %q", o.Platform))
	}
	if cores%p.CoresPerNode != 0 {
		panic(fmt.Sprintf("experiments: %d cores not divisible by %d cores/node",
			cores, p.CoresPerNode))
	}
	return p.WithNodes(cores / p.CoresPerNode)
}

// strategyConfig builds the iostrat configuration for one scale,
// carrying the backend and cross-node aggregation options through so
// the sweep runs on the cluster layer when they are set.
func (o Options) strategyConfig(cores int) iostrat.Config {
	cfg := iostrat.Config{
		Platform:   o.platformFor(cores),
		Workload:   iostrat.CM1Workload(o.Iterations),
		Seed:       o.Seed + uint64(cores),
		Backend:    storage.Kind(o.Backend),
		BackendDir: o.BackendDir,
		Fanout:     o.Fanout,
		Codec:      o.Codec,
		Scheduling: o.Scheduling,
		Dedup:      o.Dedup,
	}
	if len(o.FailNodes) > 0 {
		sched := cluster.NewFailureSchedule()
		for _, n := range o.FailNodes {
			sched.Add(n, o.FailAt)
		}
		cfg.Failures = sched
	}
	if o.Scenario != "" {
		tr, err := workload.Generate(workload.Spec{
			Scenario:   o.Scenario,
			Seed:       o.Seed,
			Iterations: o.Iterations,
			Nodes:      cfg.Platform.Nodes,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		cfg.Scenario = tr
		cfg.Fanout = o.treeFanout() // scenario traces ride the aggregation tree
	}
	if o.Adapt != "" {
		cfg.Adapt = iostrat.AdaptPolicy(o.Adapt)
	}
	return cfg
}

// treeFanout is the aggregation-tree fanout of the legs that only exist
// in tree mode: the -fanout option when it enables the tree, else 4.
func (o Options) treeFanout() int {
	if o.Fanout >= 2 {
		return o.Fanout
	}
	return 4
}

// maxScale returns the largest core count in the sweep.
func (o Options) maxScale() int {
	m := o.Scales[0]
	for _, s := range o.Scales[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

// Check compares one measured quantity against the band implied by the
// paper's claim. Bands are generous on purpose: the substrate is a
// simulator, the paper's testbed is not, and only the shape is asserted.
type Check struct {
	Name     string
	Paper    string // the paper's claim, as text
	Measured float64
	Unit     string
	Lo, Hi   float64 // accepted band; Hi == 0 means "at least Lo"
}

// Pass reports whether the measurement falls inside the band.
func (c Check) Pass() bool {
	if c.Hi == 0 {
		return c.Measured >= c.Lo
	}
	return c.Measured >= c.Lo && c.Measured <= c.Hi
}

// String renders the check as a report line.
func (c Check) String() string {
	status := "OK  "
	if !c.Pass() {
		status = "MISS"
	}
	band := fmt.Sprintf("[%s, %s]", stats.FormatFloat(c.Lo), stats.FormatFloat(c.Hi))
	if c.Hi == 0 {
		band = fmt.Sprintf(">= %s", stats.FormatFloat(c.Lo))
	}
	return fmt.Sprintf("%s %-38s paper: %-34s measured: %s %s (band %s)",
		status, c.Name, c.Paper, stats.FormatFloat(c.Measured), c.Unit, band)
}

// Report bundles an experiment's tables and checks.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Checks []Check
}

// AllPass reports whether every check passed.
func (r Report) AllPass() bool {
	for _, c := range r.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// String renders the full report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}
