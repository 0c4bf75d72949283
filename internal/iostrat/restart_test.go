package iostrat

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/topology"
)

func restartConfig(nodes, fanout int) Config {
	plat := topology.Kraken(nodes)
	return Config{
		Platform: plat,
		Workload: CM1Workload(2),
		Seed:     7,
		Fanout:   fanout,
		testBase: flatModel(plat),
	}
}

// TestRestartReadShape: both layouts read the full checkpoint back, and
// the tree mode reads through few roots with wide stripes.
func TestRestartReadShape(t *testing.T) {
	const nodes = 16
	wantBytes := CM1Workload(2).NodeBytes(topology.Kraken(1).CoresPerNode) * nodes
	for _, fanout := range []int{0, 4} {
		res, err := RestartRead(restartConfig(nodes, fanout))
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesRead != wantBytes {
			t.Errorf("fanout %d: BytesRead = %g, want %g", fanout, res.BytesRead, wantBytes)
		}
		if res.ReadTime <= 0 || res.TotalTime < res.ReadTime {
			t.Errorf("fanout %d: times wrong: read=%g total=%g", fanout, res.ReadTime, res.TotalTime)
		}
		if fanout == 0 && res.Roots != nodes {
			t.Errorf("baseline should read one file per node, got %d roots", res.Roots)
		}
		if fanout == 4 && res.Roots >= nodes {
			t.Errorf("tree mode should read through few roots, got %d", res.Roots)
		}
	}
	// Tree mode pays NIC scatter on top of the read; baseline does not.
	base, _ := RestartRead(restartConfig(nodes, 0))
	if base.TotalTime != base.ReadTime {
		t.Errorf("baseline has no scatter phase: read=%g total=%g", base.ReadTime, base.TotalTime)
	}
}

// TestRestartReadDeterministic: the memory backend has no stochastic
// inputs, so two runs are bit-identical.
func TestRestartReadDeterministic(t *testing.T) {
	a, err := RestartRead(restartConfig(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestartRead(restartConfig(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("restart model not deterministic: %+v vs %+v", a, b)
	}
}

// TestRestartReadAfterFailures: dead nodes hold no data and receive
// none, so the restart reads strictly less.
func TestRestartReadAfterFailures(t *testing.T) {
	cfg := restartConfig(16, 2)
	full, err := RestartRead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = cluster.NewFailureSchedule().Add(3, 0).Add(5, 0)
	less, err := RestartRead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perNode := CM1Workload(2).NodeBytes(topology.Kraken(1).CoresPerNode)
	want := full.BytesRead - 2*perNode
	if diff := less.BytesRead - want; diff > 1 || diff < -1 {
		t.Fatalf("BytesRead = %g after 2 deaths, want %g", less.BytesRead, want)
	}
}

// TestRestartReadAllRootsDead: nothing was stored, nothing to read.
func TestRestartReadAllRootsDead(t *testing.T) {
	cfg := restartConfig(2, 2)
	cfg.AggRoots = 1
	sched := cluster.NewFailureSchedule()
	for n := 0; n < 2; n++ {
		sched.Add(n, 0)
	}
	cfg.Failures = sched
	res, err := RestartRead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead != 0 || res.TotalTime != 0 {
		t.Fatalf("read %g bytes from a dead forest: %+v", res.BytesRead, res)
	}
}

// TestRestartTopologyMatchesForest: over seeded failure schedules on
// small forests, the restart's one walk gives every live node the
// children Tree.Children lists and the live-subtree size
// Forest.Required(n, 0) counts, and the forest's live roots.
func TestRestartTopologyMatchesForest(t *testing.T) {
	for seed := range uint64(200) {
		r := rng.New(seed, 0)
		nodes, fanout, aggRoots := 2+r.Intn(30), 2+r.Intn(3), 1+r.Intn(3)
		sched := cluster.NewFailureSchedule()
		for range r.Intn(nodes/2 + 1) {
			sched.Add(r.Intn(nodes), r.Intn(3))
		}
		forest := cluster.NewForest(nodes, fanout, aggRoots)
		for _, n := range sched.Nodes() {
			forest.Fail(n, 0)
		}
		tree := forest.Tree()
		roots, kids, size := restartTopology(nodes, fanout, aggRoots, sched)
		if !slices.Equal(roots, tree.Roots()) {
			t.Fatalf("seed %d (%s): roots %v, forest has %v", seed, sched, roots, tree.Roots())
		}
		for n := range nodes {
			if !tree.Alive(n) {
				continue
			}
			if want := tree.Children(n); !slices.Equal(kids[n], want) {
				t.Fatalf("seed %d (%s): node %d children %v, want %v", seed, sched, n, kids[n], want)
			}
			if want := forest.Required(n, 0).Len(); size[n] != want {
				t.Fatalf("seed %d (%s): node %d subtree size %d, want %d", seed, sched, n, size[n], want)
			}
		}
	}
}
