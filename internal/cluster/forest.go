package cluster

import "fmt"

// Forest is the aggregation routing protocol, written once and driven
// by both faces through each node's Gather: the runtime Cluster under
// its mutex, the DES model in internal/iostrat from the single
// simulation thread. It has no goroutine, lock or clock — events in
// (Route, Flush, Fail, Reform, RootDone), decisions out — and owns the
// topology epochs, the failure overlay (a dead node is dead in every
// epoch, new ones included) and the per-iteration completeness ledger;
// docs/ARCHITECTURE.md, "The aggregation protocol", has the decision
// table. Four rules are decided here and nowhere else, each a row of
// the table in forest_test.go:
//
//  1. Late drain. A node that died at iteration k stays in the coverage
//     requirement, for every iteration below k, of the live node its
//     drain chain reaches: its forwarder had posted those iterations
//     before it died, so the data is certain to arrive, and no root
//     stores — nor any node flushes at end of run — ahead of it.
//  2. Ready and route are one decision. Route checks coverage against
//     the epoch it routes by and moves the re-formation fence in the
//     same step; nothing can re-form the forest in between.
//  3. Edge accounting. Fail reports the edges moved in the epoch that
//     routes the triggering iteration.
//  4. Lose at a live root means exactly "this root already stored the
//     iteration"; after rule 1 only end-of-run flushes of stragglers
//     still reach it.
type Forest struct {
	n      int
	epochs []epoch
	fence  int     // highest iteration a routing decision was made for, -1 before any
	dead   []death // in death order

	stored    map[[2]int]bool // (root, iteration) → the root took the Store decision
	covered   map[int]int     // iteration → origin nodes in stored root objects
	doneRoots map[int]int     // iteration → roots done with it
	completed map[int]bool    // iterations done at every live root of their epoch
}

// death is one failed node and the first iteration it no longer served.
type death struct{ node, at int }

// epoch binds one topology to the iterations from from until the next
// epoch's from.
type epoch struct {
	from, fanout, roots int // roots as requested, before the failure overlay
	tree                Tree
	window              []int // base subtree → window ordinal, -1 if extinct when built
	windows             int
	liveRoots           int

	// Memoised until the next death.
	required map[int]Cover   // node → live subtree
	awaited  map[int][]death // live drain target → dead nodes draining there
}

// DecisionKind names what Route decided.
type DecisionKind int

// The decisions, and what the driver does with the batch.
const (
	NotReady DecisionKind = iota // coverage requirement not met: keep the batch
	Forward                      // send the merged batch to the live parent To
	Store                        // live root, first time: store through root window Window
	Drain                        // node is dead: relay to To, the live end of its drain chain
	Lose                         // root already stored it, or dead with no drain target: counted loss
)

// Decision is Route's answer for one (node, iteration).
type Decision struct {
	Kind       DecisionKind
	To, Window int
}

// NewForest builds the first epoch over n nodes; fanout and roots are
// clamped as NewTree clamps them.
func NewForest(n, fanout, roots int) *Forest {
	f := &Forest{n: n, fence: -1, stored: map[[2]int]bool{},
		covered: map[int]int{}, doneRoots: map[int]int{}, completed: map[int]bool{}}
	f.epochs = []epoch{f.newEpoch(0, fanout, roots)}
	return f
}

// newEpoch builds a topology with the deaths so far re-applied and its
// live roots' windows numbered ascending. A window belongs to the base
// subtree, so a promoted root inherits the dead root's.
func (f *Forest) newEpoch(from, fanout, roots int) epoch {
	e := epoch{from: from, fanout: fanout, roots: roots, tree: NewTree(f.n, fanout, roots),
		required: map[int]Cover{}}
	for _, d := range f.dead {
		e.tree.Fail(d.node)
	}
	e.window = make([]int, len(e.tree.starts))
	for s := range e.window {
		e.window[s] = -1
	}
	for _, r := range e.tree.Roots() {
		e.window[e.tree.SubtreeIndex(r)] = e.windows
		e.windows++
	}
	e.liveRoots = e.windows
	return e
}

// at returns the epoch routing iteration it.
func (f *Forest) at(it int) *epoch {
	i := len(f.epochs) - 1
	for i > 0 && f.epochs[i].from > it {
		i--
	}
	return &f.epochs[i]
}

// routing is at plus the fence: once any node has asked about an
// iteration, its epoch is fixed for every node.
func (f *Forest) routing(it int) *epoch {
	f.fence = max(f.fence, it)
	return f.at(it)
}

func (f *Forest) cur() *epoch { return &f.epochs[len(f.epochs)-1] }

func (e *epoch) liveSubtree(node int) Cover {
	req, ok := e.required[node]
	if !ok {
		req = e.tree.LiveSubtree(node)
		e.required[node] = req
	}
	return req
}

// lateDrains returns the dead nodes node may still await (rule 1). A
// node killed at iteration 0 — as an eviction kills — had posted
// nothing and is never awaited.
func (f *Forest) lateDrains(e *epoch, node int) []death {
	if e.awaited == nil {
		e.awaited = map[int][]death{}
		for _, d := range f.dead {
			if to, ok := e.tree.DrainTarget(d.node); ok && d.at > 0 {
				e.awaited[to] = append(e.awaited[to], d)
			}
		}
	}
	return e.awaited[node]
}

// Required returns the origin nodes node must have merged before it
// may route iteration it: its live subtree in the iteration's epoch
// plus, by rule 1, every dead node draining into it that died after
// it. Empty for a dead node, which relays at once.
func (f *Forest) Required(node, it int) Cover {
	e := f.at(it)
	var late Cover
	for _, d := range f.lateDrains(e, node) {
		if it < d.at {
			late.Add(d.node)
		}
	}
	if late == nil {
		return e.liveSubtree(node)
	}
	late.Union(e.liveSubtree(node))
	return late
}

// Route is the protocol's one decision: whether node may release
// iteration it given the origin nodes it has covered, and where the
// batch then goes (rule 2).
func (f *Forest) Route(node, it int, covered Cover) Decision {
	f.routing(it)
	if !covered.Contains(f.Required(node, it)) {
		return Decision{Kind: NotReady}
	}
	return f.Flush(node, it)
}

// Flush is Route without the readiness check: the end-of-run flush of
// whatever node holds for iteration it.
func (f *Forest) Flush(node, it int) Decision {
	e := f.routing(it)
	if !f.Alive(node) {
		if to, ok := e.tree.DrainTarget(node); ok {
			return Decision{Kind: Drain, To: to}
		}
		return Decision{Kind: Lose}
	}
	if parent, ok := e.tree.Parent(node); ok {
		return Decision{Kind: Forward, To: parent}
	}
	if f.stored[[2]int{node, it}] {
		return Decision{Kind: Lose}
	}
	f.stored[[2]int{node, it}] = true
	return Decision{Kind: Store, Window: e.window[e.tree.SubtreeIndex(node)]}
}

// Fail kills node at iteration atIter — the first it no longer serves —
// in every epoch: children re-route, a dead root's first live child is
// promoted. It returns the edges moved in the epoch routing atIter
// (rule 3); ok is false, and nothing changes, if node was dead already.
func (f *Forest) Fail(node, atIter int) (edges []RerouteEdge, ok bool) {
	if !f.Alive(node) {
		return nil, false
	}
	f.dead = append(f.dead, death{node, atIter})
	routing := f.at(atIter)
	for i := range f.epochs {
		e := &f.epochs[i]
		moved := e.tree.Fail(node)
		e.liveRoots = len(e.tree.Roots())
		e.required, e.awaited = map[int]Cover{}, nil
		if e == routing {
			edges = moved
		}
	}
	// Iterations that waited only on the dead root are complete now.
	for it := range f.doneRoots {
		f.checkComplete(it)
	}
	return edges, true
}

// Reform opens a new topology epoch at the fence and returns the first
// iteration it routes; every iteration below keeps its epoch end to
// end. An epoch that never routed anything is replaced in place.
func (f *Forest) Reform(fanout, roots int) (from int, err error) {
	if fanout < 2 || roots < 1 {
		return 0, fmt.Errorf("cluster: Reform needs fanout >= 2 and roots >= 1, got %d and %d", fanout, roots)
	}
	e := f.newEpoch(f.fence+1, fanout, roots)
	if e.liveRoots == 0 {
		return 0, fmt.Errorf("cluster: Reform with every node dead")
	}
	if last := f.cur(); last.from >= e.from {
		e.from = last.from
		*last = e
	} else {
		f.epochs = append(f.epochs, e)
	}
	return e.from, nil
}

// RootDone records that one root is done with iteration it, having
// stored nodes origin nodes' data (0 when the object was dropped or its
// Put failed: completion is liveness, coverage is what was stored).
func (f *Forest) RootDone(it, nodes int) {
	if nodes > 0 {
		f.covered[it] += nodes
	}
	f.doneRoots[it]++
	f.checkComplete(it)
}

func (f *Forest) checkComplete(it int) {
	if live := f.at(it).liveRoots; live > 0 && f.doneRoots[it] >= live {
		f.completed[it] = true
	}
}

// Done reports whether nothing more will be stored for iteration it:
// every live root of its epoch stored it, or no root is left alive.
func (f *Forest) Done(it int) bool { return f.completed[it] || f.at(it).liveRoots == 0 }

// Completed counts the iterations every live root finished.
func (f *Forest) Completed() int { return len(f.completed) }

// Completeness maps each iteration some root stored to the fraction of
// the forest's nodes whose data those objects cover.
func (f *Forest) Completeness() map[int]float64 {
	out := make(map[int]float64, len(f.covered))
	for it, n := range f.covered {
		out[it] = float64(n) / float64(f.n)
	}
	return out
}

// Window returns the window ordinal of node's base subtree in iteration
// it's epoch — what per-root resources (broker targets, stripe layouts,
// in-situ queues) are keyed by. It equals Tree.SubtreeIndex unless a
// whole subtree was already extinct when the epoch was built.
func (f *Forest) Window(node, it int) int {
	e := f.at(it)
	return e.window[e.tree.SubtreeIndex(node)]
}

// Windows returns how many root windows iteration it's epoch laid out.
func (f *Forest) Windows(it int) int { return f.at(it).windows }

// StripeWidth is the one sizing rule for a root window: the configured
// targets per root when set, otherwise the targets shared out across
// the windows and clamped to [8, 64] (few root streams saturate the
// array yet stay few large streams); either way within [1, targets].
func StripeWidth(configured, targets, windows int) int {
	if configured <= 0 {
		configured = min(max(targets/(2*windows), 8), 64)
	}
	return max(min(configured, targets), 1)
}

// Alive reports whether node has not been failed.
func (f *Forest) Alive(node int) bool { return f.cur().tree.Alive(node) }

// Tree returns a copy of the current epoch's topology, overlay included.
func (f *Forest) Tree() Tree { return f.cur().tree.Clone() }

// Shape returns the fanout and roots the current epoch was asked for.
func (f *Forest) Shape() (fanout, roots int) { return f.cur().fanout, f.cur().roots }

// Epochs returns the length of the topology history.
func (f *Forest) Epochs() int { return len(f.epochs) }

// Receivers returns every node that may still expect a delivery from
// node: its parent in any epoch while it lives, the live end of its
// drain chain once dead. A node ending its stream tells these.
func (f *Forest) Receivers(node int) (to Cover) {
	for i := range f.epochs {
		t := &f.epochs[i].tree
		n, ok := t.Parent(node)
		if !t.Alive(node) {
			n, ok = t.DrainTarget(node)
		}
		if ok {
			to.Add(n)
		}
	}
	return to
}

// Senders is the inverse: every node that may still deliver to node —
// its live children in any epoch plus the dead nodes draining into it.
// The union graph stays acyclic: every tree keeps parent id < child id,
// re-routing included, and a dead node waits for nobody.
func (f *Forest) Senders(node int) (from Cover) {
	for i := range f.epochs {
		t := &f.epochs[i].tree
		for _, k := range t.Children(node) {
			from.Add(k)
		}
		for _, d := range f.dead {
			if to, ok := t.DrainTarget(d.node); ok && to == node {
				from.Add(d.node)
			}
		}
	}
	return from
}
