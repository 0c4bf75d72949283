package iostrat

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/topology"
)

// writeInterval is one observed occupancy of a backend target: from the
// moment the write was handed to the backend until its completion —
// exactly the span a write token is supposed to cover.
type writeInterval struct {
	target     int
	start, end float64
}

// probeBackend wraps a cost model and records every write's target
// occupancy interval.
type probeBackend struct {
	storage.CostModel

	mu        sync.Mutex
	intervals []writeInterval
}

func (pb *probeBackend) record(target int, start, end float64) {
	pb.mu.Lock()
	pb.intervals = append(pb.intervals, writeInterval{target, start, end})
	pb.mu.Unlock()
}

func (pb *probeBackend) Write(target int, bytes float64, pat storage.Pattern) *des.Future {
	return pb.watch(target, pb.CostModel.Write(target, bytes, pat))
}

func (pb *probeBackend) WriteChunk(target int, bytes float64, pat storage.Pattern) *des.Future {
	return pb.watch(target, pb.CostModel.WriteChunk(target, bytes, pat))
}

// watch records target's occupancy from now until f completes.
func (pb *probeBackend) watch(target int, f *des.Future) *des.Future {
	start := pb.Engine().Now()
	f.Then(func() { pb.record(target, start, pb.Engine().Now()) })
	return f
}

// overlaps returns the number of target-time conflicts: pairs of write
// intervals on the same target with positive-measure overlap (touching
// endpoints are fine — a release and the next grant share a timestamp).
func (pb *probeBackend) overlaps() int {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	byTarget := map[int][]writeInterval{}
	for _, iv := range pb.intervals {
		byTarget[iv.target] = append(byTarget[iv.target], iv)
	}
	conflicts := 0
	for _, ivs := range byTarget {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end-1e-9 {
				conflicts++
			}
			if ivs[i].end > ivs[i-1].end {
				continue
			}
			// Nested interval: keep the widest end for the next check.
			ivs[i].end = ivs[i-1].end
		}
	}
	return conflicts
}

// clusterTokenConfig returns a tree-mode run whose stripe windows are
// wide enough that the roots collide without cross-root scheduling.
func clusterTokenConfig(seed uint64, nodes, fanout, roots, osts int) (Config, *probeBackend) {
	plat := topology.Kraken(nodes)
	plat.PFS.OSTs = osts
	w := CM1Workload(3)
	w.ComputeTime = 50
	pb := &probeBackend{}
	return Config{
		Platform:    plat,
		Workload:    w,
		Seed:        seed,
		Fanout:      fanout,
		AggRoots:    roots,
		RootStripes: osts, // every root stripes the full array: maximal collision
		Scheduling:  SchedClusterToken,
		testBase: func(eng *des.Engine, r *rng.Stream) storage.CostModel {
			pb.CostModel = storage.NewPFS(eng, plat.PFS, r)
			return pb
		},
	}, pb
}

// TestClusterTokenPropertyNoConcurrentWriters is the scheduling
// invariant of the cluster broker: under SchedClusterToken no OST ever
// serves two concurrent writers, whatever the forest shape — including
// runs where Tree.Fail re-routes subtrees and promotes roots mid-run.
func TestClusterTokenPropertyNoConcurrentWriters(t *testing.T) {
	type tc struct {
		nodes, fanout, roots, osts int
		fail                       *cluster.FailureSchedule
	}
	cases := []tc{
		{nodes: 8, fanout: 2, roots: 2, osts: 8},
		{nodes: 12, fanout: 3, roots: 3, osts: 16},
		{nodes: 16, fanout: 4, roots: 4, osts: 12},
		// Root 0 dies mid-run: a sibling is promoted and inherits the
		// stripe window.
		{nodes: 8, fanout: 2, roots: 2, osts: 8,
			fail: cluster.NewFailureSchedule().Add(0, 1)},
		// An interior node and a root die in the same run.
		{nodes: 16, fanout: 4, roots: 2, osts: 16,
			fail: cluster.NewFailureSchedule().Add(8, 1).Add(1, 2)},
	}
	for i, c := range cases {
		for _, seed := range []uint64{1, 17, 4242} {
			cfg, pb := clusterTokenConfig(seed, c.nodes, c.fanout, c.roots, c.osts)
			cfg.Failures = c.fail
			res, err := Run(Damaris, cfg)
			if err != nil {
				t.Fatalf("case %d seed %d: %v", i, seed, err)
			}
			if len(pb.intervals) == 0 {
				t.Fatalf("case %d seed %d: probe saw no writes", i, seed)
			}
			if n := pb.overlaps(); n != 0 {
				t.Errorf("case %d seed %d: %d concurrent-writer conflicts under %s",
					i, seed, n, SchedClusterToken)
			}
			if c.fail != nil && res.NodesFailed != c.fail.Len() {
				t.Errorf("case %d seed %d: %d nodes failed, schedule had %d",
					i, seed, res.NodesFailed, c.fail.Len())
			}
		}
	}
}

// Without coordination the same layout does collide — the probe is
// actually capable of seeing the conflicts the token prevents.
func TestUncoordinatedRootsCollide(t *testing.T) {
	cfg, pb := clusterTokenConfig(1, 8, 2, 2, 8)
	cfg.Scheduling = SchedNone
	if _, err := Run(Damaris, cfg); err != nil {
		t.Fatal(err)
	}
	if pb.overlaps() == 0 {
		t.Fatal("uncoordinated full-array striping should produce concurrent writers on some OST")
	}
}

// SchedOSTToken guards only the stream's base target: with overlapping
// stripe windows the roots still collide — the per-backend token is not
// a cluster schedule. This is the gap SchedClusterToken closes.
func TestOSTTokenStillCollidesAcrossRoots(t *testing.T) {
	cfg, pb := clusterTokenConfig(1, 8, 2, 2, 12)
	// Bases 0 and 8, windows 8 wide on 12 targets: distinct base tokens,
	// overlapping windows — the collision a base-only token cannot see.
	cfg.RootStripes = 8
	cfg.Scheduling = SchedOSTToken
	if _, err := Run(Damaris, cfg); err != nil {
		t.Fatal(err)
	}
	if pb.overlaps() == 0 {
		t.Fatal("base-target tokens should not prevent stripe-window collisions")
	}
}

func TestSchedulingValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheduling = "bogus"
	if _, err := Run(Damaris, cfg); err == nil {
		t.Fatal("unknown scheduling policy accepted")
	}
	for _, s := range Schedulings() {
		if err := ValidateScheduling(s); err != nil {
			t.Fatalf("listed policy %q rejected: %v", s, err)
		}
	}
}

// The broker's wait shows up in the run's ledger: a contended cluster
// run reports scheduling wait time and root contention.
func TestClusterTokenReportsWait(t *testing.T) {
	cfg, _ := clusterTokenConfig(3, 8, 2, 2, 8)
	res, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RootContention == 0 {
		t.Fatal("full-array striping with 2 roots should contend")
	}
	if res.SchedWaitTime <= 0 {
		t.Fatal("contended grants should accumulate SchedWaitTime")
	}
	if len(res.TreeWriteLatencies) != cfg.Workload.Iterations {
		t.Fatalf("want %d per-iteration write latencies, got %d",
			cfg.Workload.Iterations, len(res.TreeWriteLatencies))
	}
	for it, l := range res.TreeWriteLatencies {
		if l <= 0 {
			t.Fatalf("iteration %d write latency %v, want > 0", it, l)
		}
	}
}
