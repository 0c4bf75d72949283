package cluster

import (
	"math/bits"
	"slices"
)

// Cover is a set of node ids, one bit per node: the protocol's one
// coverage type. A Gather holds the origin nodes of each payload in
// one, a forwarded batch carries one, Route checks one against
// Required, and Senders and Receivers answer with one. The nil Cover is
// the empty set.
type Cover []uint64

// CoverOf builds the set of the given nodes.
func CoverOf(nodes ...int) (c Cover) {
	for _, n := range nodes {
		c.Add(n)
	}
	return c
}

// Has reports whether node n is in c.
func (c Cover) Has(n int) bool { return n>>6 < len(c) && c[n>>6]&(1<<(n&63)) != 0 }

// Add puts node n into c.
func (c *Cover) Add(n int) {
	if short := n>>6 + 1 - len(*c); short > 0 {
		*c = append(*c, make(Cover, short)...)
	}
	(*c)[n>>6] |= 1 << (n & 63)
}

// Union puts every node of o into c.
func (c *Cover) Union(o Cover) {
	n := min(len(*c), len(o))
	for i, w := range o[:n] {
		(*c)[i] |= w
	}
	*c = append(*c, o[n:]...)
}

// Contains reports whether every node of o is in c.
func (c Cover) Contains(o Cover) bool {
	for i, w := range o {
		if w != 0 && (i >= len(c) || w&^c[i] != 0) {
			return false
		}
	}
	return true
}

// Len counts the nodes in c.
func (c Cover) Len() (n int) {
	for _, w := range c {
		n += bits.OnesCount64(w)
	}
	return n
}

// Nodes appends c's node ids to dst, ascending.
func (c Cover) Nodes(dst []int) []int {
	for i, w := range c {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// Gather is the only place either face keeps what a node has merged
// and not yet routed: per iteration, ascending, the payload so far and
// the Cover of its origin nodes. Like Forest it has no goroutine, lock
// or clock. P is *Batch at runtime, a byte count in the DES and nothing
// in the exhaustive checker; merge combines a held payload with a
// delivered one. Deliver copies the Cover it is given, so the one Ask or
// Step hands out with a payload is the caller's to keep or pass on.
type Gather[P any] struct {
	forest *Forest
	node   int
	merge  func(held, in P) P
	held   []gatherSlot[P] // ascending by iteration
}

type gatherSlot[P any] struct {
	it    int
	p     P
	cover Cover
}

// NewGather returns node's gather over forest.
func NewGather[P any](forest *Forest, node int, merge func(held, in P) P) *Gather[P] {
	return &Gather[P]{forest: forest, node: node, merge: merge}
}

// find returns where iteration it is held, or would be.
func (g *Gather[P]) find(it int) (int, bool) {
	return slices.BinarySearchFunc(g.held, it, func(s gatherSlot[P], it int) int { return s.it - it })
}

// Deliver merges a contribution to iteration it carrying the origin
// nodes in c; the first one for an iteration is held as it is, with a
// copy of c wide enough for every node — the one allocation a held
// iteration makes.
func (g *Gather[P]) Deliver(it int, p P, c Cover) {
	i, ok := g.find(it)
	if ok {
		g.held[i].p = g.merge(g.held[i].p, p)
		g.held[i].cover.Union(c)
		return
	}
	cover := make(Cover, (g.forest.n+63)/64)
	cover.Union(c)
	g.held = slices.Insert(g.held, i, gatherSlot[P]{it, p, cover})
}

// Ask puts the held iteration it to Route. Unless the answer is
// NotReady — as it is when nothing is held for it — the iteration
// leaves g and its payload and cover go to the caller.
func (g *Gather[P]) Ask(it int) (d Decision, p P, c Cover) {
	i, ok := g.find(it)
	if !ok {
		return Decision{Kind: NotReady}, p, nil
	}
	s := g.held[i]
	if d = g.forest.Route(g.node, it, s.cover); d.Kind == NotReady {
		return d, p, nil
	}
	g.held = slices.Delete(g.held, i, i+1)
	return d, s.p, s.cover
}

// Step puts every held iteration to Route, ascending — to Flush with
// flush: the end-of-run flush and a dead node's drain — and hands each
// decision but NotReady to carry, which must not call back into g. The
// iteration leaves g unless carry keeps it.
func (g *Gather[P]) Step(flush bool, carry func(it int, d Decision, p P, c Cover) (keep bool)) {
	kept := g.held[:0]
	for _, s := range g.held {
		var d Decision
		if flush {
			d = g.forest.Flush(g.node, s.it)
		} else {
			d = g.forest.Route(g.node, s.it, s.cover)
		}
		if d.Kind == NotReady || carry(s.it, d, s.p, s.cover) {
			kept = append(kept, s)
		}
	}
	clear(g.held[len(kept):])
	g.held = kept
}

// Len counts the iterations g holds.
func (g *Gather[P]) Len() int { return len(g.held) }

// Held calls visit on every iteration g holds, ascending: what nobody
// routed by the end of the run.
func (g *Gather[P]) Held(visit func(it int, p P, c Cover)) {
	for _, s := range g.held {
		visit(s.it, s.p, s.cover)
	}
}
