package experiments

import (
	"sort"
	"testing"

	"repro/internal/iostrat"
)

// TestE1ThroughCluster is the acceptance run for the multi-node layer:
// the E1 weak-scaling experiment at 16 simulated nodes (192 Kraken
// cores), routed through the internal/cluster aggregation tree, under
// two different storage backends. Damaris must beat both baselines on
// aggregate throughput with every backend, and the full throughput
// ordering of the three approaches must not depend on the backend.
func TestE1ThroughCluster(t *testing.T) {
	base := Options{
		Seed:       2013,
		Iterations: 2,
		Scales:     []int{192}, // 16 nodes × 12 cores on kraken
		Platform:   "kraken",
		Fanout:     4,
	}
	ranking := func(backend string) []iostrat.Approach {
		opts := base
		opts.Backend = backend
		res, err := RunE1(opts)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		th := map[iostrat.Approach]float64{}
		for a, r := range res.Results[192] {
			th[a] = r.Throughput()
		}
		ranked := []iostrat.Approach{iostrat.FilePerProcess, iostrat.Collective, iostrat.Damaris}
		sort.SliceStable(ranked, func(i, j int) bool { return th[ranked[i]] > th[ranked[j]] })
		if ranked[0] != iostrat.Damaris {
			t.Errorf("%s: damaris not on top: dam=%v coll=%v fpp=%v",
				backend, th[iostrat.Damaris], th[iostrat.Collective], th[iostrat.FilePerProcess])
		}
		return ranked
	}
	pfsRank := ranking("pfs")
	memRank := ranking("memory")
	for i := range pfsRank {
		if pfsRank[i] != memRank[i] {
			t.Fatalf("aggregate-throughput ordering differs across backends: pfs=%v memory=%v",
				pfsRank, memRank)
		}
	}
}

// TestE1ClusterReducesFiles: with the aggregation tree on, Damaris
// creates far fewer (larger) files than the per-node baseline.
func TestE1ClusterReducesFiles(t *testing.T) {
	opts := Options{Seed: 2013, Iterations: 2, Scales: []int{192}, Platform: "kraken"}
	baseline, err := RunE1(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fanout = 4
	clustered, err := RunE1(opts)
	if err != nil {
		t.Fatal(err)
	}
	b := baseline.Results[192][iostrat.Damaris].FilesCreated
	c := clustered.Results[192][iostrat.Damaris].FilesCreated
	if c >= b {
		t.Errorf("cluster aggregation did not reduce files: %d vs %d", c, b)
	}
}
