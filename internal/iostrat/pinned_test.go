package iostrat

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// pinned is the slice of a run's measurements the reduction layers
// (codec, dedup) can move. DrainTime and IOWindow are the ones that see
// the async transfer path: TotalTime is application-visible and hides it.
type pinned struct {
	TotalTime, DrainTime, IOWindow          float64
	BytesWritten, BytesSaved, CodecCPUTime  float64
	HashCPUTime, DedupBytesSaved, BytesRead float64
}

func (p pinned) String() string {
	return fmt.Sprintf("{%v, %v, %v, %v, %v, %v, %v, %v, %v}",
		p.TotalTime, p.DrainTime, p.IOWindow, p.BytesWritten, p.BytesSaved,
		p.CodecCPUTime, p.HashCPUTime, p.DedupBytesSaved, p.BytesRead)
}

// TestReductionLayersPinned holds the DES face of the codec and dedup
// layers to the last bit: flat Damaris and the flat restart move one
// file per node through a layer's transfers, tree mode and the tree
// restart stripe each root's object across a window. The expected
// values were recorded by running this body at the commit before the
// layers' transfer methods were folded into one cost middleware
// (cd67351); the restart rows with failed nodes, which read through a
// re-routed tree, at the commit before the restart read walked its
// topology once (1e047d3). A layer change that moves any of them
// changed the model, not just the code.
func TestReductionLayersPinned(t *testing.T) {
	layers := []struct {
		name  string
		apply func(*Config)
	}{
		{"codec", func(c *Config) { c.Codec = storage.AdaptiveCodec }},
		{"dedup", func(c *Config) { c.Dedup, c.DedupNewFraction = true, 0.25 }},
		{"both", func(c *Config) {
			c.Codec, c.Dedup, c.DedupNewFraction = storage.AdaptiveCodec, true, 0.25
		}},
	}
	shapes := []struct {
		name    string
		fanout  int
		restart bool
		memory  bool  // the flat model in place of the PFS model
		roots   int   // AggRoots, 0 for the default
		dead    []int // nodes failed before the run
	}{
		{"damaris-flat", 0, false, false, 0, nil},
		{"damaris-tree", 4, false, false, 0, nil},
		{"damaris-tree-memory", 4, false, true, 0, nil},
		{"restart-flat", 0, true, false, 0, nil},
		{"restart-tree", 4, true, false, 0, nil},
		// One 16-node tree: the root dies (node 1 is promoted, 2-4
		// re-route to it), then interior node 2 (9-12 re-route to 1),
		// then leaf 13.
		{"restart-tree-failed", 4, true, false, 0, []int{0, 2, 13}},
		// Eight two-node trees: root 0 dies and promotes 1, which then
		// dies as a childless root, taking its tree with it.
		{"restart-tree-childless", 4, true, false, 8, []int{0, 1}},
	}
	want := map[string]pinned{
		"damaris-flat/codec":           {165.63149587199138, 167.42674532413668, 4.291454248225811, 3.648e+09, 1.824e+10, 27.36000000000001, 0, 0, 0},
		"damaris-flat/dedup":           {165.63149587199138, 167.97376567262185, 6.591061805422129, 5.856750576e+09, 0, 0, 21.88799999999999, 1.6031249424e+10, 0},
		"damaris-flat/both":            {165.63149587199138, 166.67646139064604, 1.5204894105923685, 9.76125096e+08, 4.88062548e+09, 7.320938219999997, 21.88799999999999, 1.6031249424e+10, 0},
		"damaris-tree/codec":           {165.63149587199138, 169.10675532413683, 4.20445424822595, 3.648e+09, 1.824e+10, 27.36000000000001, 0, 0, 0},
		"damaris-tree/dedup":           {165.63149587199138, 169.653775672622, 6.504061805422268, 5.856750576e+09, 0, 0, 21.88799999999999, 1.6031249424e+10, 0},
		"damaris-tree/both":            {165.63149587199138, 168.34747139064623, 1.4244894105925496, 9.76125096e+08, 4.88062548e+09, 7.320938219999997, 21.88799999999999, 1.6031249424e+10, 0},
		"damaris-tree-memory/codec":    {165.63149587199138, 168.7235058719914, 2.430000000000007, 3.648e+09, 1.824e+10, 27.36000000000001, 0, 0, 0},
		"damaris-tree-memory/dedup":    {165.63149587199138, 169.06966224199138, 3.8104691099999926, 5.856750576e+09, 0, 0, 21.88799999999999, 1.6031249424e+10, 0},
		"damaris-tree-memory/both":     {165.63149587199138, 168.20538481324138, 0.7600781849999905, 9.76125096e+08, 4.88062548e+09, 7.320938219999997, 21.88799999999999, 1.6031249424e+10, 0},
		"restart-flat/codec":           {1.8643595916745086, 1.8643595916745086, 0, 0, 0, 0, 0, 0, 1.216e+09},
		"restart-flat/dedup":           {8.01927359079461, 8.01927359079461, 0, 0, 0, 0, 0, 0, 7.296e+09},
		"restart-flat/both":            {2.320359591674509, 2.320359591674509, 0, 0, 0, 0, 0, 0, 1.216e+09},
		"restart-tree/codec":           {6.700389591674508, 1.8553595916745085, 0, 0, 0, 0, 0, 0, 1.216e+09},
		"restart-tree/dedup":           {12.855303590794612, 8.010273590794611, 0, 0, 0, 0, 0, 0, 7.296e+09},
		"restart-tree/both":            {7.156389591674509, 2.311359591674509, 0, 0, 0, 0, 0, 0, 1.216e+09},
		"restart-tree-failed/codec":    {4.959100316707504, 1.5390503167075047, 0, 0, 0, 0, 0, 0, 9.88e+08},
		"restart-tree-failed/dedup":    {9.959967940992588, 6.539917940992587, 0, 0, 0, 0, 0, 0, 5.928e+09},
		"restart-tree-failed/both":     {5.329600316707504, 1.9095503167075047, 0, 0, 0, 0, 0, 0, 9.88e+08},
		"restart-tree-childless/codec": {1.6796445916301148, 1.3946395916301149, 0, 0, 0, 0, 0, 0, 1.064e+09},
		"restart-tree-childless/dedup": {5.912944255724339, 5.627939255724339, 0, 0, 0, 0, 0, 0, 6.384e+09},
		"restart-tree-childless/both":  {1.793644591630115, 1.508639591630115, 0, 0, 0, 0, 0, 0, 1.064e+09},
	}
	for _, sh := range shapes {
		for _, l := range layers {
			name := sh.name + "/" + l.name
			t.Run(name, func(t *testing.T) {
				cfg := treeConfig()
				cfg.Fanout = sh.fanout
				if sh.memory {
					cfg.testBase = flatModel(cfg.Platform)
				}
				cfg.AggRoots = sh.roots
				if sh.dead != nil {
					cfg.Failures = cluster.NewFailureSchedule()
					for _, n := range sh.dead {
						cfg.Failures.Add(n, 0)
					}
				}
				l.apply(&cfg)
				var got pinned
				if sh.restart {
					res, err := RestartRead(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got = pinned{TotalTime: res.TotalTime, DrainTime: res.ReadTime, BytesRead: res.BytesRead}
				} else {
					res, err := Run(Damaris, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got = pinned{res.TotalTime, res.DrainTime, res.IOWindow, res.BytesWritten,
						res.BytesSaved, res.CodecCPUTime, res.HashCPUTime, res.DedupBytesSaved, 0}
				}
				if got != want[name] {
					t.Errorf("%q: %v,", name, got)
				}
			})
		}
	}
}
