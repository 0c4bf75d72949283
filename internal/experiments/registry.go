package experiments

// Entry is one runnable experiment in the registry: the lower-case id
// the bench CLI's -exp flag and the CI matrix use, a short title, and
// the runner itself.
type Entry struct {
	ID    string
	Title string
	Run   func(Options) (Report, error)
}

// Registry lists every experiment in presentation order. It is the
// single source of truth consumed by cmd/damaris-bench (to build the
// -exp dispatch) and the root package's docs_test.go (to verify each
// experiment has a docs/EXPERIMENTS.md section) — adding a runner here
// without documenting it fails the test suite.
func Registry() []Entry {
	return []Entry{
		{"e1", "weak-scaling run time (§IV.A)", func(o Options) (Report, error) {
			r, err := RunE1(o)
			return r.Report, err
		}},
		{"e2", "I/O variability (§IV.B)", RunE2},
		{"e3", "aggregate throughput (§IV.C)", RunE3},
		{"e4", "dedicated-core idle time (§IV.D)", RunE4},
		{"e5", "compression on spare time (§IV.D)", RunE5},
		{"e6", "I/O scheduling (§IV.D)", RunE6},
		{"e7", "in-situ visualization coupling (§V.C.1)", RunE7},
		{"e7s", "streaming in-situ pipeline (E7 extension)", RunE7S},
		{"e8", "usability LoC (§V.C.2)", RunE8},
		{"a1", "shared-memory ablation", RunA1},
		{"a2", "aggregation ablation", RunA2},
		{"f1", "node-failure resilience", RunF1},
		{"r1", "checkpoint/restart", RunR1},
		{"c1", "compression codecs", RunC1},
		{"e9", "multi-tenant admission", RunE9},
		{"e10", "incremental checkpoints and dedup", RunE10},
		{"e11", "deterministic scenarios × elastic tree adaptation", RunE11},
	}
}
