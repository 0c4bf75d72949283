// Package experiments implements the reproduction harness: one experiment
// per quantitative claim of the paper's evaluation (§IV and §V.C), each
// producing the table/series the paper reports plus a set of checks
// comparing the measured shape against the published one. Every
// experiment is one Registry entry, run through a Pass.
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
	"slices"
	"strings"

	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Options control the scale of an experiment run. Every experiment runs
// the one design testdata/paper.golden pins at Default(); only its
// size, seed and machine vary.
type Options struct {
	// Seed is the root seed for every stochastic input.
	Seed uint64
	// Iterations is the number of compute+output cycles per run.
	Iterations int
	// Scales lists the total core counts of the weak-scaling sweep.
	Scales []int
	// Platform names the preset machine (default "kraken").
	Platform string
	// BackendDir, when set, makes R1 store its runtime objects as SDF
	// files under BackendDir/fail<i>, ready for `damaris-bench
	// -restart-from`; empty keeps them in memory.
	BackendDir string
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

// strategyConfig builds the iostrat configuration for one scale: the
// platform, the CM1 workload and the seed. Experiments set the design
// knobs they sweep on the result.
func (o Options) strategyConfig(cores int) iostrat.Config {
	return iostrat.Config{
		Platform: o.platformFor(cores),
		Workload: iostrat.CM1Workload(o.Iterations),
		Seed:     o.Seed + uint64(cores),
	}
}

// treeFanout is the aggregation-tree fanout of the legs that only exist
// in tree mode.
const treeFanout = 4

// maxScale returns the largest core count in the sweep.
func (o Options) maxScale() int { return slices.Max(o.Scales) }

// Check compares one measured quantity against the band implied by the
// paper's claim. Bands are generous on purpose: the substrate is a
// simulator, the paper's testbed is not, and only the shape is asserted.
type Check struct {
	Name     string
	Paper    string // the paper's claim, as text
	Measured float64
	Unit     string
	Lo, Hi   float64 // accepted band; Hi == 0 means "at least Lo"
	// Timed marks a measurement taken from the wall clock: it, and so
	// its status, differs between two runs of the same binary, and
	// Report.Masked hides both.
	Timed bool
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
	return c.line(status, stats.FormatFloat(c.Measured))
}

func (c Check) line(status, measured string) string {
	band := fmt.Sprintf("[%s, %s]", stats.FormatFloat(c.Lo), stats.FormatFloat(c.Hi))
	if c.Hi == 0 {
		band = fmt.Sprintf(">= %s", stats.FormatFloat(c.Lo))
	}
	return fmt.Sprintf("%s %-38s paper: %-34s measured: %s %s (band %s)",
		status, c.Name, c.Paper, measured, c.Unit, band)
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
func (r Report) String() string { return r.render(false) }

// Masked renders the report like String with every measured table
// cell and every Timed check's status and value replaced by "~": two
// runs of the same binary print the same masked report.
func (r Report) Masked() string { return r.render(true) }

func (r Report) render(masked bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if masked {
			b.WriteString(t.Masked())
		} else {
			b.WriteString(t.String())
		}
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		if masked && c.Timed {
			b.WriteString(c.line("~   ", "~"))
		} else {
			b.WriteString(c.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
