package cluster

import (
	"slices"
	"testing"
)

// TestCover: the coverage bitset across word boundaries, and the nil
// Cover as the empty set.
func TestCover(t *testing.T) {
	var empty Cover
	if empty.Has(0) || empty.Len() != 0 || empty.Nodes(nil) != nil {
		t.Fatal("the nil Cover is not empty")
	}
	c := CoverOf(700, 0, 64, 63)
	c.Union(CoverOf(1, 64))
	if want := []int{0, 1, 63, 64, 700}; !slices.Equal(c.Nodes(nil), want) || c.Len() != len(want) {
		t.Fatalf("Nodes = %v (Len %d), want %v", c.Nodes(nil), c.Len(), want)
	}
	if c.Has(2) || c.Has(65) || c.Has(701) || c.Has(1<<20) {
		t.Fatalf("%v has a node never added", c.Nodes(nil))
	}
	if !c.Contains(CoverOf(700, 1)) || !c.Contains(nil) || !empty.Contains(Cover{0, 0}) ||
		c.Contains(CoverOf(0, 2)) || c.Contains(CoverOf(1<<10)) {
		t.Fatal("Contains is not the subset relation")
	}
}

// TestGatherHoldsAscending: a gather releases iterations ascending
// whatever order they arrived in, merges every contribution to one, and
// keeps what the forest is not ready for.
func TestGatherHoldsAscending(t *testing.T) {
	f := NewForest(3, 2, 1) // 0 → {1, 2}
	g := NewGather(f, 0, func(held, in []int) []int { return append(held, in...) })
	g.Deliver(2, []int{20}, CoverOf(0))
	g.Deliver(1, []int{10}, CoverOf(1, 2))
	g.Deliver(0, []int{0}, CoverOf(0, 1))
	g.Deliver(1, []int{11}, CoverOf(0))
	g.Deliver(0, []int{1}, CoverOf(2))
	var order []int
	g.Step(false, func(it int, d Decision, p []int, c Cover) bool {
		if d.Kind != Store || c.Len() != 3 {
			t.Fatalf("iteration %d: %+v covering %v", it, d, c.Nodes(nil))
		}
		order = append(order, it)
		order = append(order, p...)
		return false
	})
	if want := []int{0, 0, 1, 1, 10, 11}; !slices.Equal(order, want) {
		t.Fatalf("released %v, want %v", order, want)
	}
	if g.Len() != 1 {
		t.Fatalf("holds %d iterations, want iteration 2 only", g.Len())
	}
	if d, _, _ := g.Ask(2); d.Kind != NotReady {
		t.Fatalf("Ask(2) = %+v with only the root's own cover", d)
	}
	if d, _, _ := g.Ask(3); d.Kind != NotReady {
		t.Fatalf("Ask(3) = %+v on an iteration never delivered", d)
	}
}

// TestGatherSteadyStateAllocs: once every node's gather has routed an
// iteration, a later one through the whole tree — each node delivers its
// own contribution, steps, and hands payload and cover to its parent's
// gather, as both faces do — allocates one thing per node: the Cover
// that travels up with the payload and is the receiver's to keep. The
// trees are the benchmark's: tenants-small's 16 nodes at fanout 2 with
// 2 roots, and des-kraken's 768 at fanout 4.
func TestGatherSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		nodes, fanout, roots int
	}{
		{"tenants-small", 16, 2, 2},
		{"des-kraken", 768, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewForest(tc.nodes, tc.fanout, tc.roots)
			gathers := make([]*Gather[float64], tc.nodes)
			selves := make([]Cover, tc.nodes)
			for n := range gathers {
				gathers[n] = NewGather(f, n, func(held, in float64) float64 { return held + in })
				selves[n] = CoverOf(n)
			}
			it, stored := 0, 0.0
			iteration := func() {
				// Every parent id is below its children's, so walking the
				// nodes downward has each subtree ready before its root.
				for n := tc.nodes - 1; n >= 0; n-- {
					gathers[n].Deliver(it, 1, selves[n])
					gathers[n].Step(false, func(it int, d Decision, p float64, c Cover) bool {
						if d.Kind == Store {
							stored += p
						} else {
							gathers[d.To].Deliver(it, p, c)
						}
						return false
					})
				}
				it++
			}
			iteration()
			if allocs := testing.AllocsPerRun(20, iteration); allocs != float64(tc.nodes) {
				t.Errorf("%v allocations per steady-state iteration, want %d: one Cover per node", allocs, tc.nodes)
			}
			if want := float64(it * tc.nodes); stored != want {
				t.Fatalf("roots stored %v node-iterations of %v", stored, want)
			}
			for n, g := range gathers {
				if g.Len() != 0 {
					t.Fatalf("node %d still holds %d iterations", n, g.Len())
				}
			}
		})
	}
}
