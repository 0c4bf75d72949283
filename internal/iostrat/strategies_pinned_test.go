package iostrat

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/topology"
)

// strategyPin is the slice of a run without reduction layers that the
// engine's event order decides: the application and drain times, the
// storage ledger, and a hash of every per-phase and per-rank timing.
type strategyPin struct {
	TotalTime, DrainTime, IOWindow, BytesWritten float64
	FilesCreated                                 int
	IOTimes, RankWriteTimes                      uint64 // FNV-1a over the float64 bits
}

func (p strategyPin) String() string {
	return fmt.Sprintf("{%v, %v, %v, %v, %d, %#x, %#x}",
		p.TotalTime, p.DrainTime, p.IOWindow, p.BytesWritten, p.FilesCreated, p.IOTimes, p.RankWriteTimes)
}

// hashFloats is FNV-1a over the little-endian bits of xs, in order.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinnedStrategyConfig is a 1,152-core Kraken shape (96 nodes × 12
// cores) at two output phases.
func pinnedStrategyConfig() Config {
	return Config{Platform: topology.Kraken(96), Workload: CM1Workload(2), Seed: 2013}
}

// pinnedStrategies are the four strategies of the paper's comparison,
// each with no reduction layer.
var pinnedStrategies = []struct {
	name     string
	approach Approach
	fanout   int
}{
	{"fpp", FilePerProcess, 0},
	{"collective", Collective, 0},
	{"damaris-flat", Damaris, 0},
	{"damaris-tree", Damaris, 4},
}

// TestStrategiesPinned holds the four strategies without reduction
// layers to the last bit, on the PFS model and on the flat model
// storage.Memory carries. The expected values were recorded by running
// this body while every simulated core was still a coroutine of its
// own; a change that moves any of them changed the model or the order
// the engine fires events in, not just the code.
func TestStrategiesPinned(t *testing.T) {
	want := map[string]strategyPin{
		"fpp/pfs":             {646.9653432340701, 646.9653432340701, 39.7504954236706, 8.7552e+10, 2304, 0xb2dc4f6352d06b00, 0xefb91a777075c212},
		"collective/pfs":      {933.949056548143, 933.949056548143, 326.16808873774346, 8.7552e+10, 2, 0x29bdc5252dae3350, 0x829d42db975d6d25},
		"damaris-flat/pfs":    {662.5851430658903, 678.832398478251, 28.974652423687758, 8.7552e+10, 192, 0x3c9d5affd567e9e9, 0xe94dea437552bba5},
		"damaris-tree/pfs":    {662.5851430658903, 676.1026118768309, 19.004023931412405, 8.755199999999965e+10, 12, 0x3c9d5affd567e9e9, 0xe94dea437552bba5},
		"fpp/memory":          {625.4787366992788, 625.4787366992788, 18.26688888887935, 8.7552e+10, 2304, 0xe5444529ba8652cb, 0x333fa85f7417b1d7},
		"collective/memory":   {759.9739678103945, 759.9739678103945, 152.19199999999495, 8.7552e+10, 2, 0x50fd6a1996ac9c1d, 0x22d01a30c0646f25},
		"damaris-flat/memory": {662.5851430658903, 667.292143065888, 9.409999999995534, 8.7552e+10, 192, 0x3c9d5affd567e9e9, 0xe94dea437552bba5},
		"damaris-tree/memory": {662.5851430658903, 666.9578673516045, 5.321428571428385, 8.755199999999965e+10, 12, 0x3c9d5affd567e9e9, 0xe94dea437552bba5},
	}
	for _, model := range []string{"pfs", "memory"} {
		for _, s := range pinnedStrategies {
			name := s.name + "/" + model
			t.Run(name, func(t *testing.T) {
				cfg := pinnedStrategyConfig()
				cfg.Fanout = s.fanout
				if model == "memory" {
					cfg.testBase = flatModel(cfg.Platform)
				}
				res, err := Run(s.approach, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := strategyPin{res.TotalTime, res.DrainTime, res.IOWindow, res.BytesWritten,
					res.FilesCreated, hashFloats(res.IOTimes), hashFloats(res.RankWriteTimes)}
				if got != want[name] {
					t.Errorf("%q: %v,", name, got)
				}
			})
		}
	}
}

// krakenStrategies are the four write runs of the des-kraken benchmark
// workload, configured as benchmark/adapter.go's desConfig does: 9,216
// cores at two output phases, and the tree through the cluster-wide
// token with the adaptive codec and dedup.
var krakenStrategies = []struct {
	name     string
	approach Approach
	tree     bool
}{
	{"damaris", Damaris, false},
	{"fpp", FilePerProcess, false},
	{"collective", Collective, false},
	{"tree", Damaris, true},
}

func krakenConfig(tree bool) Config {
	cfg := Config{Platform: topology.Kraken(9216 / 12), Workload: CM1Workload(2), Seed: 2013}
	if tree {
		krakenTree(&cfg)
	}
	return cfg
}

// krakenTree is the des-kraken workload's tree configuration: fanout 4,
// cluster-wide tokens, the adaptive codec and dedup.
func krakenTree(cfg *Config) {
	cfg.Fanout = 4
	cfg.Scheduling = SchedClusterToken
	cfg.Codec = storage.AdaptiveCodec
	cfg.Dedup, cfg.DedupNewFraction = true, 0.25
}

// BenchmarkStrategyRun times one whole run of each strategy on the PFS
// model: the pinned strategies at 1,152 cores (BenchmarkStrategyRun/1152)
// and the des-kraken workload's four write runs at 9,216 cores
// (BenchmarkStrategyRun/9216), whose FPP spends a larger share drawing
// OST placements. allocs/op shows what a run allocates besides the
// events themselves (make pprof-cpu aims here, see the Makefile).
func BenchmarkStrategyRun(b *testing.B) {
	run := func(b *testing.B, approach Approach, cfg Config) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Run(approach, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("1152", func(b *testing.B) {
		for _, s := range pinnedStrategies {
			b.Run(s.name, func(b *testing.B) {
				cfg := pinnedStrategyConfig()
				cfg.Fanout = s.fanout
				run(b, s.approach, cfg)
			})
		}
	})
	b.Run("9216", func(b *testing.B) {
		for _, s := range krakenStrategies {
			b.Run(s.name, func(b *testing.B) { run(b, s.approach, krakenConfig(s.tree)) })
		}
	})
}

// BenchmarkRestartRead times one restart read of the des-kraken
// workload's tree checkpoint at 9,216 cores — RestartRead on
// krakenConfig(true), the read behind the benchmark's restore_MBps —
// with its allocations (make pprof-cpu aims here, see the Makefile):
// of the whole forest (healthy), and after a quarter of the nodes died
// spread as R1 spreads them (failures), which reads through a re-routed
// tree.
func BenchmarkRestartRead(b *testing.B) {
	dead := cluster.NewFailureSchedule()
	for k := range 768 / 4 {
		dead.Add(1+(k*3)%767, 0)
	}
	for _, c := range []struct {
		name     string
		failures *cluster.FailureSchedule
	}{{"healthy", nil}, {"failures", dead}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := krakenConfig(true)
			cfg.Failures = c.failures
			b.ReportAllocs()
			for range b.N {
				if _, err := RestartRead(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
