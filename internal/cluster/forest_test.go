package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// set builds a coverage set.
func set(nodes ...int) Cover { return CoverOf(nodes...) }

// forestStep is one event put to a Forest; the zero fields of want are
// not compared.
type forestStep struct {
	// Exactly one of these drives the step.
	route  *[2]int // node, iteration (with covered)
	flush  *[2]int
	fail   *[2]int // node, atIter
	reform *[2]int // fanout, roots

	covered Cover

	want      Decision         // route, flush
	wantEdges []RerouteEdge    // fail (nil: not compared…
	noEdges   bool             // …unless set: the death must move nothing)
	wantFrom  int              // reform
	wantErr   bool             // reform
	required  map[[2]int][]int // (node, iteration) → Required after the step
	windows   map[[2]int]int   // (node, iteration) → Window after the step
	epochs    int              // Epochs after the step (0: not checked)
}

func at(a, b int) *[2]int { return &[2]int{a, b} }

// TestForestRules is the protocol's decision table: every routing rule
// is decided in forest.go and pinned here, on the Forest alone — no
// goroutine, no clock. The trees are NewTree(9, 2, 1) = 0 → {1,2};
// 1 → {3,4}; 2 → {5,6}; 3 → {7,8} unless a case says otherwise.
func TestForestRules(t *testing.T) {
	cases := []struct {
		name                string
		nodes, fanout, root int
		steps               []forestStep
	}{
		{
			name: "plain routing: not ready, forward, store once, then lose",
			steps: []forestStep{
				{route: at(3, 0), covered: set(3, 7), want: Decision{Kind: NotReady}},
				{route: at(3, 0), covered: set(3, 7, 8), want: Decision{Kind: Forward, To: 1}},
				{route: at(0, 0), covered: set(0, 1, 2, 3, 4, 5, 6, 7, 8), want: Decision{Kind: Store}},
				// Rule 4: the only loss a live root decides is "already stored".
				{route: at(0, 0), covered: set(0, 1, 2, 3, 4, 5, 6, 7, 8), want: Decision{Kind: Lose}},
				{flush: at(0, 0), want: Decision{Kind: Lose}},
				// A flush never asks about readiness.
				{flush: at(0, 1), want: Decision{Kind: Store}},
				{flush: at(4, 1), want: Decision{Kind: Forward, To: 1}},
			},
		},
		{
			name: "rule 1, late drain: the drain target awaits the dead node's pre-death iterations",
			steps: []forestStep{
				{fail: at(1, 2), wantEdges: []RerouteEdge{{3, 0}, {4, 0}},
					required: map[[2]int][]int{
						{0, 0}: {0, 1, 2, 3, 4, 5, 6, 7, 8}, // died at 2: iterations 0 and 1 are certain to arrive
						{0, 1}: {0, 1, 2, 3, 4, 5, 6, 7, 8},
						{0, 2}: {0, 2, 3, 4, 5, 6, 7, 8},
						{1, 0}: nil, // a dead node relays at once
						{2, 0}: {2, 5, 6},
					}},
				// The root must not store iteration 1 ahead of the late drain…
				{route: at(0, 1), covered: set(0, 2, 3, 4, 5, 6, 7, 8), want: Decision{Kind: NotReady}},
				// …the dead node's aggregator drains what it holds to the root…
				{route: at(1, 1), covered: set(1), want: Decision{Kind: Drain, To: 0}},
				// …and then it stores; the death iteration itself never waits.
				{route: at(0, 1), covered: set(0, 1, 2, 3, 4, 5, 6, 7, 8), want: Decision{Kind: Store}},
				{route: at(0, 2), covered: set(0, 2, 3, 4, 5, 6, 7, 8), want: Decision{Kind: Store}},
			},
		},
		{
			name: "rule 1: a node killed at iteration 0 (an eviction) is never awaited",
			steps: []forestStep{
				{fail: at(1, 0), required: map[[2]int][]int{{0, 0}: {0, 2, 3, 4, 5, 6, 7, 8}}},
				{route: at(0, 0), covered: set(0, 2, 3, 4, 5, 6, 7, 8), want: Decision{Kind: Store}},
			},
		},
		{
			name: "rule 1: the drain chain is chased through a second death",
			steps: []forestStep{
				{fail: at(3, 2), wantEdges: []RerouteEdge{{7, 1}, {8, 1}},
					required: map[[2]int][]int{{1, 1}: {1, 3, 4, 7, 8}, {0, 1}: {0, 1, 2, 4, 5, 6, 7, 8}}},
				{fail: at(1, 3), wantEdges: []RerouteEdge{{4, 0}, {7, 0}, {8, 0}},
					required: map[[2]int][]int{
						{0, 1}: {0, 1, 2, 3, 4, 5, 6, 7, 8}, // both corpses now drain into the root
						{0, 2}: {0, 1, 2, 4, 5, 6, 7, 8},    // 3 died at 2, 1 at 3
						{0, 3}: {0, 2, 4, 5, 6, 7, 8},
					}},
				{route: at(3, 1), covered: set(3), want: Decision{Kind: Drain, To: 0}},
				{route: at(1, 2), covered: set(1, 4), want: Decision{Kind: Drain, To: 0}},
			},
		},
		{
			name:  "root death: the promoted child inherits the dead root's window and awaits its late drain",
			nodes: 12, fanout: 2, root: 2, // subtrees [0..5] and [6..11]
			steps: []forestStep{
				{fail: at(6, 1), wantEdges: []RerouteEdge{{7, -1}, {8, 7}},
					required: map[[2]int][]int{{7, 0}: {6, 7, 8, 9, 10, 11}, {7, 1}: {7, 8, 9, 10, 11}},
					windows:  map[[2]int]int{{7, 1}: 1, {0, 1}: 0}},
				{route: at(6, 0), covered: set(6, 8), want: Decision{Kind: Drain, To: 7}},
				{route: at(7, 1), covered: set(7, 8, 9, 10, 11), want: Decision{Kind: Store, Window: 1}},
			},
		},
		{
			name:  "a childless root's death leaves nowhere to drain",
			nodes: 4, fanout: 2, root: 4,
			steps: []forestStep{
				{fail: at(2, 1), noEdges: true},
				{route: at(2, 0), covered: set(2), want: Decision{Kind: Lose}},
				{fail: at(2, 5), noEdges: true}, // a second death of the same node changes nothing
			},
		},
		{
			name: "rule 2: readiness is judged by the epoch the iteration routes by, and asking fences it",
			steps: []forestStep{
				// A leaf asks about iteration 0: the fence is now 0.
				{route: at(8, 0), covered: set(8), want: Decision{Kind: Forward, To: 3}},
				{reform: at(2, 9), wantFrom: 1, epochs: 2}, // every node its own root from iteration 1 on
				// Iteration 0 keeps its epoch end to end; iteration 1 is a root's business everywhere.
				{route: at(3, 0), covered: set(3, 8), want: Decision{Kind: NotReady}},
				{route: at(3, 1), covered: set(3), want: Decision{Kind: Store, Window: 3}},
				// Asking about iteration 1 fenced it: the next epoch starts at 2
				// and cannot re-home a pending 1.
				{reform: at(2, 1), wantFrom: 2, epochs: 3},
				{route: at(4, 1), covered: set(4), want: Decision{Kind: Store, Window: 4}},
				{route: at(4, 2), covered: set(4), want: Decision{Kind: Forward, To: 1}},
				// A question answered NotReady fences just the same, so the
				// batch that goes back to pending keeps the epoch it was judged by.
				{route: at(0, 7), covered: set(0), want: Decision{Kind: NotReady}},
				{reform: at(2, 9), wantFrom: 8, epochs: 4},
				{route: at(0, 7), covered: set(0), want: Decision{Kind: NotReady}},
			},
		},
		{
			name: "an epoch that never routed is replaced in place",
			steps: []forestStep{
				{reform: at(3, 2), wantFrom: 0, epochs: 1},
				{reform: at(4, 1), wantFrom: 0, epochs: 1},
				{route: at(4, 0), covered: set(4), want: Decision{Kind: Forward, To: 0}}, // fanout 4: 0 → {1,2,3,4}
				{reform: at(1, 1), wantErr: true, epochs: 1},
				{reform: at(2, 0), wantErr: true, epochs: 1},
			},
		},
		{
			name: "reform after a death re-applies the overlay, and rule 1 with it",
			steps: []forestStep{
				{route: at(8, 0), covered: set(8), want: Decision{Kind: Forward, To: 3}},
				{fail: at(1, 3), wantEdges: []RerouteEdge{{3, 0}, {4, 0}}},
				{reform: at(4, 1), wantFrom: 1, epochs: 2, // 0 → {1,2,3,4}; 2 → {5,6,7,8}; 1 stays dead
					required: map[[2]int][]int{
						{0, 2}: {0, 1, 2, 3, 4, 5, 6, 7, 8}, // new epoch, still awaited below its death
						{0, 3}: {0, 2, 3, 4, 5, 6, 7, 8},
						{0, 0}: {0, 1, 2, 3, 4, 5, 6, 7, 8}, // old epoch too
					}},
				{route: at(1, 2), covered: set(1), want: Decision{Kind: Drain, To: 0}},
			},
		},
		{
			name: "rule 3: Fail reports the edges of the epoch routing the death iteration",
			steps: []forestStep{
				{route: at(8, 1), covered: set(8), want: Decision{Kind: Forward, To: 3}},
				{reform: at(8, 1), wantFrom: 2, epochs: 2}, // 0 → {1..8}: node 1 is a leaf from iteration 2 on
				{fail: at(1, 1), wantEdges: []RerouteEdge{{3, 0}, {4, 0}}},
			},
		},
		{
			name: "rule 3, the other side: a death in the flat epoch moves no edge",
			steps: []forestStep{
				{route: at(8, 1), covered: set(8), want: Decision{Kind: Forward, To: 3}},
				{reform: at(8, 1), wantFrom: 2, epochs: 2},
				{fail: at(1, 2), noEdges: true},
				// …but the old epoch re-routed all the same.
				{route: at(3, 1), covered: set(3, 7, 8), want: Decision{Kind: Forward, To: 0}},
			},
		},
		{
			name:  "windows number the live roots of an epoch built after a subtree went extinct",
			nodes: 4, fanout: 2, root: 4,
			steps: []forestStep{
				{route: at(0, 0), covered: set(0), want: Decision{Kind: Store, Window: 0}},
				{fail: at(1, 1), windows: map[[2]int]int{{2, 0}: 2, {3, 0}: 3}},
				{reform: at(2, 4), wantFrom: 1, windows: map[[2]int]int{{0, 1}: 0, {2, 1}: 1, {3, 1}: 2, {3, 0}: 3}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.nodes == 0 {
				tc.nodes, tc.fanout, tc.root = 9, 2, 1
			}
			f := NewForest(tc.nodes, tc.fanout, tc.root)
			for i, s := range tc.steps {
				where := fmt.Sprintf("step %d", i)
				switch {
				case s.route != nil:
					if got := f.Route(s.route[0], s.route[1], s.covered); got != s.want {
						t.Fatalf("%s: Route(%d, %d, %v) = %+v, want %+v", where, s.route[0], s.route[1], s.covered.Nodes(nil), got, s.want)
					}
				case s.flush != nil:
					if got := f.Flush(s.flush[0], s.flush[1]); got != s.want {
						t.Fatalf("%s: Flush(%d, %d) = %+v, want %+v", where, s.flush[0], s.flush[1], got, s.want)
					}
				case s.fail != nil:
					wasAlive := f.Alive(s.fail[0])
					edges, ok := f.Fail(s.fail[0], s.fail[1])
					if ok != wasAlive || f.Alive(s.fail[0]) {
						t.Fatalf("%s: Fail ok=%v on a node alive=%v, alive after=%v", where, ok, wasAlive, f.Alive(s.fail[0]))
					}
					if (s.wantEdges != nil || s.noEdges) && !reflect.DeepEqual(edges, s.wantEdges) {
						t.Fatalf("%s: Fail(%d, %d) edges = %v, want %v", where, s.fail[0], s.fail[1], edges, s.wantEdges)
					}
				case s.reform != nil:
					from, err := f.Reform(s.reform[0], s.reform[1])
					if (err != nil) != s.wantErr || (err == nil && from != s.wantFrom) {
						t.Fatalf("%s: Reform(%d, %d) = %d, %v; want %d, error=%v", where, s.reform[0], s.reform[1], from, err, s.wantFrom, s.wantErr)
					}
				}
				for k, want := range s.required {
					if got := f.Required(k[0], k[1]).Nodes(nil); !equalInts(got, want) {
						t.Fatalf("%s: Required(%d, %d) = %v, want %v", where, k[0], k[1], got, want)
					}
				}
				for k, want := range s.windows {
					if got := f.Window(k[0], k[1]); got != want {
						t.Fatalf("%s: Window(%d, %d) = %d, want %d", where, k[0], k[1], got, want)
					}
				}
				if s.epochs != 0 && f.Epochs() != s.epochs {
					t.Fatalf("%s: Epochs = %d, want %d", where, f.Epochs(), s.epochs)
				}
			}
		})
	}
}

// TestForestWindowAgreesWithSubtreeIndex: on every forest without an
// extinct subtree the window ordinal is the base subtree's index, dead
// roots and promotions included — the definition the runtime face used
// before the two were unified.
func TestForestWindowAgreesWithSubtreeIndex(t *testing.T) {
	for _, shape := range [][3]int{{9, 2, 1}, {12, 2, 2}, {16, 4, 4}, {10, 3, 5}, {7, 2, 7}} {
		f := NewForest(shape[0], shape[1], shape[2])
		tree := f.Tree()
		// Kill every root that has a child to promote, then its successor.
		for round := 0; round < 2; round++ {
			for _, r := range f.Tree().Roots() {
				if len(f.Tree().Children(r)) > 0 {
					f.Fail(r, 1)
				}
			}
		}
		for n := 0; n < shape[0]; n++ {
			if got, want := f.Window(n, 0), tree.SubtreeIndex(n); got != want {
				t.Fatalf("shape %v: Window(%d) = %d, SubtreeIndex = %d", shape, n, got, want)
			}
		}
	}
}

// TestForestLedger: the completeness ledger — a root death completes
// the iterations that waited only on it, coverage counts stored nodes
// only, and a forest with no live root completes nothing but is done.
func TestForestLedger(t *testing.T) {
	f := NewForest(12, 2, 2)
	f.RootDone(0, 6)
	if f.Done(0) || f.Completed() != 0 {
		t.Fatal("iteration 0 complete with one of two roots done")
	}
	f.RootDone(1, 0) // dropped object: liveness without coverage
	f.Fail(6, 1)
	f.Fail(7, 1) // the promoted root too: 8 takes over
	if f.Done(0) {
		t.Fatal("iteration 0 complete while the promoted root still owes it")
	}
	f.RootDone(0, 3)
	f.RootDone(1, 4)
	if !f.Done(0) || !f.Done(1) || f.Completed() != 2 {
		t.Fatalf("Done = %v, %v; Completed = %d; want both, 2", f.Done(0), f.Done(1), f.Completed())
	}
	if got, want := f.Completeness(), (map[int]float64{0: 9.0 / 12, 1: 4.0 / 12}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Completeness = %v, want %v", got, want)
	}

	g := NewForest(2, 2, 2)
	g.RootDone(0, 1)
	g.Fail(0, 1)
	if !g.Done(0) || g.Completed() != 1 {
		t.Fatal("the surviving root's store did not complete iteration 0 once the other root died")
	}
	g.Fail(1, 1)
	if !g.Done(5) || g.Completed() != 1 {
		t.Fatal("a forest with no live root must be done with, and complete, nothing more")
	}
}

// TestForestSendersAndReceivers: who a node must hear from before its
// end-of-run flush and whom it tells when its stream ends — across
// epochs, and with dead nodes draining (the other half of rule 1).
func TestForestSendersAndReceivers(t *testing.T) {
	f := NewForest(9, 2, 1)
	f.Route(8, 0, set(8))
	if _, err := f.Reform(8, 1); err != nil { // 0 → {1..8} from iteration 1
		t.Fatal(err)
	}
	if got := f.Receivers(8).Nodes(nil); !equalInts(got, []int{0, 3}) {
		t.Fatalf("Receivers(8) = %v, want [0 3] (a parent per epoch)", got)
	}
	if got := f.Senders(3).Nodes(nil); !equalInts(got, []int{7, 8}) {
		t.Fatalf("Senders(3) = %v, want [7 8]", got)
	}
	f.Fail(3, 1)
	if got := f.Senders(1).Nodes(nil); !equalInts(got, []int{3, 4, 7, 8}) {
		t.Fatalf("Senders(1) = %v, want [3 4 7 8] (adopted children and the draining corpse)", got)
	}
	if got := f.Receivers(3).Nodes(nil); !equalInts(got, []int{0, 1}) {
		t.Fatalf("Receivers(3) = %v, want [0 1] (its drain target in each epoch)", got)
	}
	if got := f.Senders(3); got.Len() != 0 {
		t.Fatalf("Senders(3) = %v: a dead node waits for nobody", got)
	}
}

// TestStripeWidth pins the one clamp both faces size root windows by.
func TestStripeWidth(t *testing.T) {
	for _, tc := range []struct{ configured, targets, windows, want int }{
		{0, 336, 1, 64}, {0, 336, 4, 42}, {0, 336, 32, 8}, {0, 4, 1, 4},
		{16, 336, 4, 16}, {500, 336, 4, 336}, {0, 1, 8, 1},
	} {
		if got := StripeWidth(tc.configured, tc.targets, tc.windows); got != tc.want {
			t.Errorf("StripeWidth(%d, %d, %d) = %d, want %d", tc.configured, tc.targets, tc.windows, got, tc.want)
		}
	}
}
