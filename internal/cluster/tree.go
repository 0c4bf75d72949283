// Package cluster scales the middleware past one SMP node: it
// instantiates N core.Nodes from a topology.Platform and wires their
// dedicated cores into a forest of k-ary aggregation trees. Leaf
// dedicated cores forward each completed iteration's blocks to their
// parent; interior nodes batch the subtree's blocks into bigger
// payloads; tree roots issue few large sequential streams to a
// storage.ObjectStore and drive cluster-wide end-of-iteration hooks.
//
// Routing is one protocol, Forest, driven by this package's Cluster and
// by the discrete-event model of the strategies in internal/iostrat, so
// simulated and runtime clusters aggregate identically.
//
// # Failure semantics
//
// A Tree tolerates node loss (Fail): when a node dies, its children are
// re-routed to the dead node's parent; when a root dies, its first live
// child is promoted to root and the remaining children re-route to that
// promoted sibling. A childless root that dies takes its (empty)
// subtree with it. Dead nodes keep a drain target (DrainTarget) — the
// destination their in-flight data is forwarded to — chased through any
// later deaths.
//
// What a failure loses and what it keeps, at the cluster layer:
//
//   - the dead node's own blocks from its failure iteration onward are
//     lost (Stats.BlocksLost);
//   - iterations the dead node had posted or merged but not forwarded
//     drain to its drain target, which waits for them (Forest rule 1),
//     so its earlier output and the children's data still reach a root;
//   - re-routed children's blocks from later iterations flow to the new
//     parent directly (Stats.ReroutedEdges counts the moved edges).
//
// Stats.PartialIterations counts the distinct iterations that some root
// stored without that root's full live-subtree coverage (straggler or
// orphaned data flushed at shutdown); data missing only because its
// origin node died does not make an iteration partial — that loss shows
// up in the per-iteration Stats.Completeness fractions instead.
package cluster

import (
	"fmt"
	"sort"
)

// Tree is a forest of complete k-ary aggregation trees over node ids
// 0..N-1. Nodes are partitioned into contiguous subtrees, one per root;
// within a subtree, heap indexing defines parent/child edges. Fail
// overlays re-routed edges on top of that arithmetic.
//
// The zero overlay is shared between copies of a Tree: Clone makes an
// independent copy, and a Tree being mutated by Fail must be externally
// synchronized with readers.
type Tree struct {
	n      int
	fanout int
	starts []int // first node id of each subtree, ascending

	// Failure overlay, nil until the first Fail.
	dead    map[int]bool
	reroute map[int]int // child → adopted parent; -1 = promoted to root
	drain   map[int]int // dead node → in-flight data target; -1 = nowhere
}

// RerouteEdge records one edge moved by a failure: Child now reports to
// NewParent; NewParent == -1 means Child was promoted to a tree root.
type RerouteEdge struct {
	Child     int
	NewParent int
}

// NewTree builds a forest over n nodes with the given fanout (children
// per interior node, min 1) and number of roots (clamped to [1, n]).
func NewTree(n, fanout, roots int) Tree {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: tree over %d nodes", n))
	}
	if fanout < 1 {
		fanout = 1
	}
	if roots < 1 {
		roots = 1
	}
	if roots > n {
		roots = n
	}
	starts := make([]int, roots)
	base, extra := n/roots, n%roots
	off := 0
	for s := range starts {
		starts[s] = off
		off += base
		if s < extra {
			off++
		}
	}
	return Tree{n: n, fanout: fanout, starts: starts}
}

// Nodes returns the number of nodes in the forest, dead or alive.
func (t Tree) Nodes() int { return t.n }

// Alive reports whether node i has not been failed.
func (t Tree) Alive(i int) bool {
	t.check(i)
	return !t.dead[i]
}

// Roots returns the live root node ids, ascending: the original subtree
// roots that are still alive plus any children promoted by root deaths.
func (t Tree) Roots() []int {
	var roots []int
	for _, s := range t.starts {
		if !t.dead[s] {
			roots = append(roots, s)
		}
	}
	for j, p := range t.reroute {
		if p == -1 && !t.dead[j] {
			roots = append(roots, j)
		}
	}
	sort.Ints(roots)
	return roots
}

// SubtreeIndex returns the ordinal of the base subtree containing node
// i — stable across failures (the overlay moves edges, not the
// partition), so per-tree resource windows (broker targets, stripe
// layouts) survive root promotion.
func (t Tree) SubtreeIndex(i int) int {
	t.check(i)
	return sort.SearchInts(t.starts, i+1) - 1
}

// subtree returns the start and size of the base subtree containing
// node i.
func (t Tree) subtree(i int) (start, size int) {
	t.check(i)
	// Last start <= i.
	s := sort.SearchInts(t.starts, i+1) - 1
	start = t.starts[s]
	if s+1 < len(t.starts) {
		size = t.starts[s+1] - start
	} else {
		size = t.n - start
	}
	return start, size
}

func (t Tree) check(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", i, t.n))
	}
}

// Parent returns the parent of node i, or ok=false when i is a root.
// For a dead node it reports the edge as of the moment of death.
func (t Tree) Parent(i int) (parent int, ok bool) {
	t.check(i)
	if p, moved := t.reroute[i]; moved {
		if p < 0 {
			return 0, false
		}
		return p, true
	}
	start, _ := t.subtree(i)
	l := i - start
	if l == 0 {
		return 0, false
	}
	return start + (l-1)/t.fanout, true
}

// Children returns the live child node ids of node i (empty for leaves
// and for dead nodes): the base children still attached, plus any nodes
// re-routed to i by failures.
func (t Tree) Children(i int) []int {
	if t.dead[i] {
		return nil
	}
	start, size := t.subtree(i)
	l := i - start
	var kids []int
	for c := t.fanout*l + 1; c <= t.fanout*l+t.fanout && c < size; c++ {
		kid := start + c
		if t.dead[kid] {
			continue
		}
		if _, moved := t.reroute[kid]; moved {
			continue
		}
		kids = append(kids, kid)
	}
	for j, p := range t.reroute {
		if p == i && !t.dead[j] {
			kids = append(kids, j)
		}
	}
	sort.Ints(kids)
	return kids
}

// Fail removes node d from the forest and re-routes its live children:
// to d's parent when d has one, otherwise (d was a root) the first live
// child is promoted to root and its siblings re-route to it. It returns
// the moved edges, including the promotion edge (NewParent == -1), and
// panics when d is out of range or already dead.
func (t *Tree) Fail(d int) []RerouteEdge {
	t.check(d)
	if t.dead[d] {
		panic(fmt.Sprintf("cluster: node %d failed twice", d))
	}
	kids := t.Children(d)
	parent, hasParent := t.Parent(d)
	if t.dead == nil {
		t.dead = map[int]bool{}
		t.reroute = map[int]int{}
		t.drain = map[int]int{}
	}
	t.dead[d] = true

	var edges []RerouteEdge
	switch {
	case hasParent:
		for _, k := range kids {
			t.reroute[k] = parent
			edges = append(edges, RerouteEdge{Child: k, NewParent: parent})
		}
		t.drain[d] = parent
	case len(kids) == 0:
		// A childless root: the subtree is gone, nothing to re-route and
		// nowhere for in-flight data to go.
		t.drain[d] = -1
	default:
		promoted := kids[0]
		t.reroute[promoted] = -1
		edges = append(edges, RerouteEdge{Child: promoted, NewParent: -1})
		for _, k := range kids[1:] {
			t.reroute[k] = promoted
			edges = append(edges, RerouteEdge{Child: k, NewParent: promoted})
		}
		t.drain[d] = promoted
	}
	return edges
}

// DrainTarget resolves where a dead node's in-flight data should be
// forwarded: its re-route destination, chased through any later deaths.
// ok=false when the data has nowhere to go (a childless root died, or i
// is alive and routes normally).
func (t Tree) DrainTarget(i int) (target int, ok bool) {
	t.check(i)
	if !t.dead[i] {
		return 0, false
	}
	x := t.drain[i]
	for x >= 0 && t.dead[x] {
		x = t.drain[x]
	}
	if x < 0 {
		return 0, false
	}
	return x, true
}

// Clone returns an independent copy of the tree, overlay included.
func (t Tree) Clone() Tree {
	c := t
	c.starts = append([]int(nil), t.starts...)
	if t.dead != nil {
		c.dead = make(map[int]bool, len(t.dead))
		for k, v := range t.dead {
			c.dead[k] = v
		}
		c.reroute = make(map[int]int, len(t.reroute))
		for k, v := range t.reroute {
			c.reroute[k] = v
		}
		c.drain = make(map[int]int, len(t.drain))
		for k, v := range t.drain {
			c.drain[k] = v
		}
	}
	return c
}

// LiveSubtree returns the live nodes of the subtree rooted at i (empty
// when i is dead: its children were re-routed away).
func (t Tree) LiveSubtree(i int) Cover {
	if t.dead[i] {
		return nil
	}
	c := make(Cover, (t.n+63)/64)
	for stack := []int{i}; len(stack) > 0; {
		j := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], t.Children(j)...)
		c.Add(j)
	}
	return c
}

// IsRoot reports whether node i is a live subtree root.
func (t Tree) IsRoot(i int) bool {
	if t.dead[i] {
		return false
	}
	_, ok := t.Parent(i)
	return !ok
}

// IsLeaf reports whether node i has no live children.
func (t Tree) IsLeaf(i int) bool { return len(t.Children(i)) == 0 }

// RootOf returns the root of the subtree containing live node i.
func (t Tree) RootOf(i int) int {
	for {
		p, ok := t.Parent(i)
		if !ok {
			return i
		}
		i = p
	}
}

// Depth returns the number of levels of the deepest live subtree (1
// when every live node is a root).
func (t Tree) Depth() int {
	max := 0
	for i := 0; i < t.n; i++ {
		if t.dead[i] {
			continue
		}
		d := 1
		for j := i; ; {
			p, ok := t.Parent(j)
			if !ok {
				break
			}
			j = p
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}
