package experiments

import (
	"fmt"
	"strings"

	"repro/internal/iostrat"
)

// Entry is one experiment: the lower-case id the bench CLI's -exp flag
// and the CI matrix use, the title its report prints, and the body that
// fills the report's tables and checks.
type Entry struct {
	ID    string
	Title string
	body  func(p *Pass, rep *Report) error
}

// Registry lists every experiment in presentation order. It is the
// single source of truth consumed by cmd/damaris-bench (to build the
// -exp dispatch) and the root package's docs_test.go (to verify each
// experiment has a docs/EXPERIMENTS.md section) — adding an experiment
// means adding one entry here, and documenting it.
func Registry() []Entry {
	return []Entry{
		{"e1", "CM1 weak scaling by I/O approach (§IV.A)", runE1},
		{"e2", "I/O variability (§IV.B)", runE2},
		{"e3", "aggregate I/O throughput (§IV.C)", runE3},
		{"e4", "dedicated-core idle time (§IV.D)", runE4},
		{"e5", "compression on the dedicated cores (§IV.D)", runE5},
		{"e6", "dedicated-core I/O scheduling (§IV.D + cross-root)", runE6},
		{"e7", "in-situ visualization coupling (§V.C.1)", runE7},
		{"e7s", "streaming in-situ pipeline vs file-then-read (E7 extension)", runE7S},
		{"e8", "integration effort: Damaris vs VisIt-style coupling (§V.C.2)", runE8},
		{"a1", "ablation: shared memory vs message passing (§III.A)", runA1},
		{"a2", "ablation: aggregation granularity (files per node per iteration)", runA2},
		{"f1", "node-failure injection and subtree re-routing", runF1},
		{"r1", "checkpoint/restart from stored objects", runR1},
		{"c1", "storage-codec sweep and adaptive selection (§IV.D on the data path)", runC1},
		{"e9", "multi-tenant admission & shared-broker accounting", runE9},
		{"e10", "incremental checkpoints: dedup, retention GC", runE10},
		{"e11", "deterministic scenarios × elastic tree adaptation", runE11},
	}
}

// Pass runs experiments over one Options: it applies the defaults once,
// builds each report's header, and runs each distinct DES leg once, no
// matter how many experiments ask for it. A Pass is not safe for
// concurrent use.
type Pass struct {
	opts Options
	// legs memoises des by leg key. Each entry keeps its Config, so the
	// pointers the key prints stay live, and so unique, for the pass.
	legs     map[string]desLeg
	requests int // des calls, served from legs or run
}

type desLeg struct {
	cfg iostrat.Config
	res iostrat.Result
}

// NewPass opens a pass over opts, with the defaults filled in.
func NewPass(opts Options) *Pass {
	return &Pass{opts: opts.withDefaults(), legs: map[string]desLeg{}}
}

// Run runs one experiment of the pass and returns its report.
func (p *Pass) Run(e Entry) (Report, error) {
	rep := Report{ID: strings.ToUpper(e.ID), Title: e.Title}
	if err := e.body(p, &rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// des runs approach a on cfg, once per pass. The key prints every
// Config field, so two legs share a result only when they are equal
// field for field, pointers compared by identity (a fresh failure
// schedule or scenario trace is a new leg). Results are shared between
// experiments and must be treated as read-only.
func (p *Pass) des(a iostrat.Approach, cfg iostrat.Config) (iostrat.Result, error) {
	p.requests++
	key := fmt.Sprintf("%s %#v", a, cfg)
	if l, ok := p.legs[key]; ok {
		return l.res, nil
	}
	res, err := iostrat.Run(a, cfg)
	if err != nil {
		return iostrat.Result{}, err
	}
	p.legs[key] = desLeg{cfg: cfg, res: res}
	return res, nil
}
