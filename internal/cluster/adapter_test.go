package cluster

import "testing"

// TestAdapterRules is the decision table of the adaptation controller:
// when it evaluates (first ask, cooldown, disturbance, never for the
// last iteration, once per iteration) and when an evaluation is a
// recommendation (only a shape other than the current one).
func TestAdapterRules(t *testing.T) {
	const nodes, targets, iters = 32, 32, 8
	const nic, pfs, nodeBytes = 1.6e9, 100e6, 456e6
	stale := [2]int{2, 1}
	wf, wr := RecommendTopology(nodes, nodeBytes, nic, pfs, targets)
	want := [2]int{wf, wr}
	if want == stale {
		t.Fatalf("nominal recommendation %v equals the stale shape: the table tests nothing", want)
	}
	sf, sr := RecommendTopology(nodes, nodeBytes, nic/20, pfs, targets)
	slowNIC := [2]int{sf, sr}
	if slowNIC == want {
		t.Fatalf("a 20x slower NIC recommends %v as well: the observation row tests nothing", want)
	}

	type step struct {
		it      int
		disturb bool
		nicObs  int    // NIC observations at nic/20 fed before the ask
		cur     [2]int // the forest's shape when asked
		ok      bool
		rec     [2]int // when ok
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"first ask evaluates", []step{{it: 0, cur: stale, ok: true, rec: want}}},
		{"cooldown spaces undisturbed evaluations", []step{
			{it: 0, cur: stale, ok: true, rec: want},
			{it: 1, cur: stale},
			{it: 2, cur: stale, ok: true, rec: want},
		}},
		{"one recommendation per iteration", []step{
			{it: 0, cur: stale, ok: true, rec: want},
			{it: 0, cur: stale}, // a second root finishing the same iteration
		}},
		{"dirty overrides cooldown, once", []step{
			{it: 0, cur: stale, ok: true, rec: want},
			{it: 1, disturb: true, cur: stale, ok: true, rec: want},
			{it: 2, cur: stale}, // the disturbance was consumed at 1
			{it: 3, cur: stale, ok: true, rec: want},
		}},
		{"no recommendation for the last iteration", []step{
			{it: iters - 1, disturb: true, cur: stale},
		}},
		{"unchanged shape is no reform", []step{{it: 0, cur: want}}},
		{"observations move the recommendation", []step{
			{it: 0, cur: want},
			{it: 2, nicObs: 40, cur: want, ok: true, rec: slowNIC},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAdapter(nodes, targets, iters, nic, pfs, func(it int) float64 {
				if it >= iters {
					t.Fatalf("volume asked for iteration %d of %d", it, iters)
				}
				return nodeBytes
			})
			for i, s := range tc.steps {
				if s.disturb {
					a.Disturb()
				}
				for k := 0; k < s.nicObs; k++ {
					a.ObserveNIC(nic / 20)
				}
				f, r, ok := a.Recommend(s.it, s.cur[0], s.cur[1])
				if ok != s.ok || (ok && [2]int{f, r} != s.rec) {
					t.Fatalf("step %d: Recommend(%d, %v) = (%d, %d, %v), want (%v, %v)",
						i, s.it, s.cur, f, r, ok, s.rec, s.ok)
				}
			}
		})
	}
}
