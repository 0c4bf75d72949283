package iostrat

import (
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/workload"
)

// treeConfig returns a 16-node machine with cross-node aggregation on.
func treeConfig() Config {
	plat := topology.Kraken(16)
	plat.PFS.OSTs = 32
	w := CM1Workload(3)
	w.ComputeTime = 50
	return Config{Platform: plat, Workload: w, Seed: 7, Fanout: 4}
}

func TestDamarisTreeConservesBytes(t *testing.T) {
	cfg := treeConfig()
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedIters > 0 {
		t.Fatalf("unexpected skips: %d", res.SkippedIters)
	}
	want := cfg.Workload.NodeBytes(cfg.Platform.CoresPerNode) *
		float64(cfg.Platform.Nodes) * float64(cfg.Workload.Iterations)
	if res.BytesWritten < want*0.999 || res.BytesWritten > want*1.001 {
		t.Errorf("tree mode wrote %v bytes, want %v", res.BytesWritten, want)
	}
}

func TestDamarisTreeAggregatesFiles(t *testing.T) {
	cfg := treeConfig()
	base, err := Run(Damaris, Config{Platform: cfg.Platform, Workload: cfg.Workload, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 nodes, fanout 4 → 1 root: one file per iteration instead of 16.
	if want := cfg.Workload.Iterations; tree.FilesCreated != want {
		t.Errorf("tree mode created %d files, want %d", tree.FilesCreated, want)
	}
	if tree.FilesCreated >= base.FilesCreated {
		t.Errorf("aggregation did not reduce file count: %d vs %d",
			tree.FilesCreated, base.FilesCreated)
	}
	if base.BytesWritten != tree.BytesWritten {
		t.Errorf("aggregation changed the payload: %v vs %v", tree.BytesWritten, base.BytesWritten)
	}
}

func TestDamarisTreeHidesIO(t *testing.T) {
	res, err := Run(Damaris, treeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanIOTime() > 1.0 {
		t.Errorf("tree mode visible I/O phase = %v s, want well under a second", res.MeanIOTime())
	}
}

func TestDamarisTreeDeterministic(t *testing.T) {
	cfg := treeConfig()
	r1, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalTime != r2.TotalTime || r1.BytesWritten != r2.BytesWritten ||
		r1.DrainTime != r2.DrainTime {
		t.Errorf("tree mode not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestDamarisTreeSurvivesSkips(t *testing.T) {
	cfg := treeConfig()
	cfg.ShmCapacity = 1e6 // cannot hold one iteration: every node skips
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedIters == 0 {
		t.Fatal("expected skips with a tiny segment")
	}
	// Zero-byte markers must keep the tree in lockstep: the run ends
	// without a modeling deadlock and writes next to nothing.
	if res.BytesWritten > 0 {
		t.Errorf("skipped iterations still wrote %v bytes", res.BytesWritten)
	}
}

func TestDamarisTreeMultiRoot(t *testing.T) {
	cfg := treeConfig()
	cfg.AggRoots = 4
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * cfg.Workload.Iterations; res.FilesCreated != want {
		t.Errorf("4 roots created %d files, want %d", res.FilesCreated, want)
	}
}

func TestDamarisTreeWithScheduling(t *testing.T) {
	cfg := treeConfig()
	cfg.Scheduling = SchedOSTToken
	if _, err := Run(Damaris, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Scheduling = SchedGlobalToken
	if _, err := Run(Damaris, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDamarisTreeCompression(t *testing.T) {
	cfg := treeConfig()
	cfg.Codec = "delta"
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := storage.Profile("delta")
	want := cfg.Workload.NodeBytes(cfg.Platform.CoresPerNode) *
		float64(cfg.Platform.Nodes) * float64(cfg.Workload.Iterations) / prof.AssumedRatio
	if res.BytesWritten < want*0.999 || res.BytesWritten > want*1.001 {
		t.Errorf("compressed tree mode wrote %v bytes, want %v", res.BytesWritten, want)
	}
}

// TestBackendSwapOrderingConsistent is the cross-model contract: at 16
// simulated nodes, the aggregate-throughput ordering of the three
// strategies must be the same whichever cost model prices the run —
// the PFS model or the flat one — with Damaris on top.
func TestBackendSwapOrderingConsistent(t *testing.T) {
	order := func(kind string) []Approach {
		cfg := treeConfig()
		if kind == "memory" {
			cfg.testBase = flatModel(cfg.Platform)
		}
		th := map[Approach]float64{}
		for _, a := range []Approach{FilePerProcess, Collective, Damaris} {
			res, err := Run(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			th[a] = res.Throughput()
		}
		ranked := []Approach{FilePerProcess, Collective, Damaris}
		sort.SliceStable(ranked, func(i, j int) bool { return th[ranked[i]] > th[ranked[j]] })
		if ranked[0] != Damaris {
			t.Errorf("%s: Damaris not on top: dam=%v fpp=%v coll=%v",
				kind, th[Damaris], th[FilePerProcess], th[Collective])
		}
		return ranked
	}
	pfsOrder := order("pfs")
	memOrder := order("memory")
	for i := range pfsOrder {
		if pfsOrder[i] != memOrder[i] {
			t.Fatalf("throughput ordering differs across cost models: pfs=%v memory=%v",
				pfsOrder, memOrder)
		}
	}
}

func TestMemoryBackendBitReproducible(t *testing.T) {
	cfg := treeConfig()
	cfg.testBase = flatModel(cfg.Platform)
	r1, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalTime != r2.TotalTime || r1.IOWindow != r2.IOWindow {
		t.Error("memory backend runs differ")
	}
}

// failConfig kills interior node 1 (children 5..8) at iteration 1 of 3.
func failConfig() Config {
	cfg := treeConfig()
	cfg.Failures = cluster.NewFailureSchedule().Add(1, 1)
	return cfg
}

func TestDamarisTreeFailureAccounting(t *testing.T) {
	cfg := failConfig()
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", res.NodesFailed)
	}
	if res.ReroutedEdges != 4 {
		t.Errorf("ReroutedEdges = %d, want 4 (children 5..8 re-route to the root)", res.ReroutedEdges)
	}
	nodeBytes := cfg.Workload.NodeBytes(cfg.Platform.CoresPerNode)
	total := nodeBytes * float64(cfg.Platform.Nodes) * float64(cfg.Workload.Iterations)
	// Node 1's own output for iterations 1 and 2 is the only loss; the
	// re-routed children's data still reaches the root.
	wantLost := 2 * nodeBytes
	if res.LostBytes < wantLost*0.999 || res.LostBytes > wantLost*1.001 {
		t.Errorf("LostBytes = %v, want %v", res.LostBytes, wantLost)
	}
	wantWritten := total - wantLost
	if res.BytesWritten < wantWritten*0.999 || res.BytesWritten > wantWritten*1.001 {
		t.Errorf("BytesWritten = %v, want %v (conservation)", res.BytesWritten, wantWritten)
	}
	want := []float64{1, 15.0 / 16, 15.0 / 16}
	for it, frac := range res.Completeness {
		if frac != want[it] {
			t.Errorf("Completeness[%d] = %v, want %v", it, frac, want[it])
		}
	}
	if loss := res.DataLossFraction(); loss <= 0 || loss >= 0.1 {
		t.Errorf("DataLossFraction = %v, want small but positive", loss)
	}
	if res.SkippedIters != 0 {
		t.Errorf("SkippedIters = %d: failure loss must not masquerade as skips", res.SkippedIters)
	}
}

func TestDamarisTreeFailureDeterministic(t *testing.T) {
	cfg := failConfig()
	r1, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalTime != r2.TotalTime || r1.BytesWritten != r2.BytesWritten ||
		r1.LostBytes != r2.LostBytes || r1.DrainTime != r2.DrainTime {
		t.Errorf("failure runs differ: %+v vs %+v", r1, r2)
	}
	for it := range r1.Completeness {
		if r1.Completeness[it] != r2.Completeness[it] {
			t.Errorf("Completeness[%d] differs", it)
		}
	}
}

func TestDamarisTreeRootFailurePromotes(t *testing.T) {
	cfg := treeConfig()
	cfg.AggRoots = 4 // subtrees of 4 nodes: roots 0, 4, 8, 12
	cfg.Failures = cluster.NewFailureSchedule().Add(0, 1)
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", res.NodesFailed)
	}
	// Node 1 promoted to root, 2 and 3 re-routed under it.
	if res.ReroutedEdges != 3 {
		t.Errorf("ReroutedEdges = %d, want 3", res.ReroutedEdges)
	}
	// The last iteration, well past the death, must be written by the
	// promoted root: only the dead node itself is missing.
	last := len(res.Completeness) - 1
	if want := 15.0 / 16; res.Completeness[last] != want {
		t.Errorf("Completeness[%d] = %v, want %v", last, res.Completeness[last], want)
	}
	// Every root wrote iteration 0; the promoted root writes again
	// after the takeover.
	if res.FilesCreated < 10 || res.FilesCreated > 12 {
		t.Errorf("FilesCreated = %d, want within [10, 12]", res.FilesCreated)
	}
}

func TestDamarisTreeEmptyScheduleMatchesNil(t *testing.T) {
	cfg := treeConfig()
	base, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = cluster.NewFailureSchedule()
	empty, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalTime != empty.TotalTime || base.BytesWritten != empty.BytesWritten ||
		base.DrainTime != empty.DrainTime || empty.NodesFailed != 0 || empty.LostBytes != 0 {
		t.Errorf("empty schedule changed the run: %+v vs %+v", base, empty)
	}
	for it, frac := range empty.Completeness {
		if frac != 1 {
			t.Errorf("Completeness[%d] = %v without failures", it, frac)
		}
	}
}

func TestDamarisTreeFailureWithSkips(t *testing.T) {
	// Failures and the §V.C skip policy must compose: a tiny segment
	// makes every live node skip, while node 1 dies outright.
	cfg := failConfig()
	cfg.ShmCapacity = 1e6
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedIters == 0 {
		t.Fatal("expected skips with a tiny segment")
	}
	if res.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", res.NodesFailed)
	}
	if res.BytesWritten > 0 {
		t.Errorf("skipped iterations still wrote %v bytes", res.BytesWritten)
	}
	if loss := res.DataLossFraction(); loss <= 0.9 {
		t.Errorf("DataLossFraction = %v, want near-total loss", loss)
	}
}

// TestFailuresRequireTreeMode: only tree mode models node deaths, so
// every other approach and layout rejects a failure schedule — given
// directly or as a scenario's node losses — instead of ignoring it.
func TestFailuresRequireTreeMode(t *testing.T) {
	run := func(a Approach) func(Config) error {
		return func(cfg Config) error { _, err := Run(a, cfg); return err }
	}
	restart := func(cfg Config) error { _, err := RestartRead(cfg); return err }
	cases := []struct {
		name   string
		fanout int
		run    func(Config) error
		ok     bool
	}{
		{"fpp", 0, run(FilePerProcess), false},
		{"fpp-fanout-4", 4, run(FilePerProcess), false},
		{"collective", 0, run(Collective), false},
		{"collective-fanout-4", 4, run(Collective), false},
		{"damaris-flat", 0, run(Damaris), false},
		{"damaris-fanout-1", 1, run(Damaris), false},
		{"damaris-tree", 4, run(Damaris), true},
		{"restart-flat", 0, restart, false},
		{"restart-tree", 4, restart, true},
	}
	for _, c := range cases {
		for _, deaths := range []string{"failures", "scenario"} {
			t.Run(c.name+"/"+deaths, func(t *testing.T) {
				cfg := treeConfig()
				cfg.Failures = cluster.NewFailureSchedule().Add(0, 1).Add(5, 1)
				if deaths == "scenario" {
					cfg = scenarioConfig(t, workload.NodeChurn, AdaptStatic)
				}
				cfg.Fanout = c.fanout
				if err := c.run(cfg); (err == nil) != c.ok {
					t.Errorf("error %v, want one: %v", err, !c.ok)
				}
			})
		}
	}
}
