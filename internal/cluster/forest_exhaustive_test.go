package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// This file checks Forest exhaustively at small scope (ROADMAP item
// 3(c)). Forest has no goroutine, lock or clock, so a minimal driver can
// be stepped through every interleaving of its events:
//
//   - begin(n): node n contributes its own block of its next iteration
//     and asks Route for it (the first ask fences the iteration);
//   - deliver(m): a forwarded or drained batch in flight arrives, is
//     merged, and the receiver asks Route again;
//   - kill(n): node n dies at its next iteration (Fail), at most once;
//   - reform(shape): the forest re-forms (Reform), at most once.
//
// A death and a re-formation wake every node holding data to ask again,
// as both faces do. Nodes run ahead of each other freely, as the runtime
// forwarders do. When no event is left the run ends as Shutdown ends it:
// a node whose Senders have all exited flushes what it still holds and
// exits. The search walks the reachable state graph — two interleavings
// that reach the same state continue identically, so every one of them
// is covered — and asserts in every state and at every end of run:
//
//   - every delivered block meets exactly one end, a Store or a counted
//     Lose, and only a dead node with nowhere to drain loses anything — a
//     run without a death stores every block exactly once (rules 1, 2, 4
//     are consequences: break one and a live root loses a late batch);
//   - no Store before Required is covered;
//   - windows partition the live roots of every iteration's epoch;
//   - Senders empties: every node gets to exit, nothing a flush sends
//     reaches a node that exited, and every iteration ends Done.

const (
	xNodes = 5 // largest forest explored
	xIters = 2
)

// xShapes are the (fanout, roots) shapes a run starts from (the first
// two) and re-forms to.
var xShapes = [][2]int{{2, 1}, {2, 2}, {4, 1}}

// xMsg is one batch in flight: iteration it's blocks of the origin nodes
// in the covers bitmask, on their way to node to.
type xMsg struct{ to, it, covers uint8 }

// xState is the driver's whole state; the Forest is part of it.
type xState struct {
	n        int
	f        *Forest
	pos      [xNodes]uint8         // next iteration the node begins; xIters once its stream ended
	pending  [xNodes][xIters]uint8 // per node and iteration, origins merged so far (bitmask)
	inflight []xMsg                // kept sorted: a multiset
	deaths   uint8                 // deaths and re-formations still allowed
	reforms  uint8
	// The ledger: per (origin, iteration), how often the block entered
	// the protocol, was stored, and was counted lost.
	delivered, stored, lost [xNodes][xIters]uint8

	// How the search got here (not part of the state's identity).
	prev  *xState
	event xEvent
}

// xEvent names one event: kind(a, b) or, for a delivery, the message.
type xEvent struct {
	kind string
	a, b int
	msg  xMsg
}

func (e xEvent) String() string {
	if e.kind == "deliver" {
		return fmt.Sprintf("deliver%v", e.msg)
	}
	return fmt.Sprintf("%s(%d,%d)", e.kind, e.a, e.b)
}

func (s *xState) clone() *xState {
	c := *s
	c.inflight = slices.Clone(s.inflight)
	f := *s.f
	f.epochs = make([]epoch, len(s.f.epochs))
	for i, e := range s.f.epochs {
		e.tree = e.tree.Clone()
		e.required, e.awaited = map[int][]int{}, nil // memos
		f.epochs[i] = e
	}
	f.dead = slices.Clone(s.f.dead)
	f.stored = cloneMap(s.f.stored)
	f.covered = cloneMap(s.f.covered)
	f.doneRoots = cloneMap(s.f.doneRoots)
	f.completed = cloneMap(s.f.completed)
	c.f = &f
	return &c
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	c := make(map[K]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// key is the canonical encoding of a state: the driver's fields and
// everything in the Forest that is not derived from them.
func (s *xState) key() string {
	f := s.f
	b := make([]byte, 0, 96)
	b = append(b, s.deaths, s.reforms, uint8(f.fence+1), uint8(len(f.dead)), uint8(len(f.epochs)))
	for _, d := range f.dead {
		b = append(b, uint8(d.node), uint8(d.at))
	}
	for _, e := range f.epochs {
		b = append(b, uint8(e.from), uint8(e.fanout), uint8(e.roots))
	}
	for n := 0; n < s.n; n++ {
		b = append(b, s.pos[n])
		for it := 0; it < xIters; it++ {
			stored := uint8(0)
			if f.stored[[2]int{n, it}] {
				stored = 1
			}
			b = append(b, s.pending[n][it], s.delivered[n][it], s.stored[n][it], s.lost[n][it], stored)
		}
	}
	for it := 0; it < xIters; it++ {
		b = append(b, uint8(f.covered[it]), uint8(f.doneRoots[it]))
	}
	for _, m := range s.inflight {
		b = append(b, m.to, m.it, m.covers)
	}
	return string(b)
}

// trail renders the interleaving that led to s.
func (s *xState) trail() string {
	var events []xEvent
	for ; s.prev != nil; s = s.prev {
		events = append(events, s.event)
	}
	slices.Reverse(events)
	return fmt.Sprint(events)
}

// failf fails the test naming the interleaving that got to s.
func (s *xState) failf(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf("%s\nforest of %d, after %s", fmt.Sprintf(format, args...), s.n, s.trail())
}

func (s *xState) send(m xMsg) {
	i, _ := slices.BinarySearchFunc(s.inflight, m, func(a, b xMsg) int {
		return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.it, b.it), cmp.Compare(a.covers, b.covers))
	})
	s.inflight = slices.Insert(s.inflight, i, m)
}

// carryOut executes what the forest decided for the batch node holds for
// iteration it.
func (s *xState) carryOut(t *testing.T, d Decision, node, it int) {
	covers := s.pending[node][it]
	s.pending[node][it] = 0
	switch d.Kind {
	case Store:
		nodes := 0
		for o := 0; o < s.n; o++ {
			if covers&(1<<o) != 0 {
				s.stored[o][it]++
				nodes++
			}
		}
		s.f.RootDone(it, nodes)
	case Forward, Drain:
		s.send(xMsg{uint8(d.To), uint8(it), covers})
	case Lose:
		for o := 0; o < s.n; o++ {
			if covers&(1<<o) != 0 {
				s.lost[o][it]++
			}
		}
	default:
		s.failf(t, "node %d iteration %d: decision %+v", node, it, d)
	}
}

// ask puts what node holds for iteration it to Route and carries the
// decision out, checking that a Store waited for its requirement.
func (s *xState) ask(t *testing.T, node, it int) {
	covers := s.pending[node][it]
	if covers == 0 {
		return
	}
	covered := map[int]bool{}
	for o := 0; o < s.n; o++ {
		if covers&(1<<o) != 0 {
			covered[o] = true
		}
	}
	required := s.f.Required(node, it)
	d := s.f.Route(node, it, covered)
	if d.Kind == NotReady {
		return
	}
	if d.Kind == Lose && s.f.Alive(node) {
		// Rules 1 and 4: no root stores ahead of data that is certain to
		// arrive, so mid-run only a dead end loses anything.
		s.failf(t, "live node %d lost iteration %d covering %v mid-run", node, it, covered)
	}
	if d.Kind == Store {
		for _, o := range required {
			if !covered[o] {
				s.failf(t, "node %d stored iteration %d covering %v before Required %v was covered",
					node, it, covered, required)
			}
		}
	}
	s.carryOut(t, d, node, it)
}

// askAll is the wake-up after a death or a re-formation.
func (s *xState) askAll(t *testing.T) {
	for node := 0; node < s.n; node++ {
		for it := 0; it < xIters; it++ {
			s.ask(t, node, it)
		}
	}
}

// next returns every state one event away.
func (s *xState) next(t *testing.T) []*xState {
	var out []*xState
	branch := func(event xEvent, ev func(c *xState)) {
		c := s.clone()
		c.prev, c.event = s, event
		ev(c)
		out = append(out, c)
	}
	for node := 0; node < s.n; node++ {
		node, it := node, int(s.pos[node])
		if it == xIters {
			continue
		}
		branch(xEvent{kind: "begin", a: node, b: it}, func(c *xState) {
			c.pos[node]++
			c.delivered[node][it]++
			c.pending[node][it] |= 1 << node
			c.ask(t, node, it)
		})
		if s.deaths > 0 {
			branch(xEvent{kind: "kill", a: node, b: it}, func(c *xState) {
				c.deaths--
				c.pos[node] = xIters
				c.f.Fail(node, it)
				c.checkWindows(t)
				c.askAll(t)
			})
		}
	}
	for i, m := range s.inflight {
		i, m := i, m
		if i > 0 && s.inflight[i-1] == m {
			continue // equal messages are one event
		}
		branch(xEvent{kind: "deliver", msg: m}, func(c *xState) {
			c.inflight = slices.Delete(c.inflight, i, i+1)
			c.pending[m.to][m.it] |= m.covers
			c.ask(t, int(m.to), int(m.it))
		})
	}
	if s.reforms > 0 {
		curFanout, curRoots := s.f.Shape()
		for _, shape := range xShapes {
			shape := shape
			if shape == [2]int{curFanout, curRoots} {
				continue
			}
			branch(xEvent{kind: "reform", a: shape[0], b: shape[1]}, func(c *xState) {
				c.reforms--
				if _, err := c.f.Reform(shape[0], shape[1]); err == nil {
					c.checkWindows(t)
					c.askAll(t)
				}
			})
		}
	}
	return out
}

// checkLedger asserts, in every state, that no block has met more ends
// than it was delivered.
func (s *xState) checkLedger(t *testing.T) {
	for o := 0; o < s.n; o++ {
		for it := 0; it < xIters; it++ {
			if s.stored[o][it]+s.lost[o][it] > s.delivered[o][it] {
				s.failf(t, "block (%d, %d) delivered %d times, stored %d and lost %d", o, it,
					s.delivered[o][it], s.stored[o][it], s.lost[o][it])
			}
		}
	}
}

// checkWindows asserts, after every event that lays windows out or moves
// them, that they partition the live roots of every iteration's epoch.
func (s *xState) checkWindows(t *testing.T) {
	for it := 0; it < xIters; it++ {
		taken := map[int]bool{}
		for _, r := range s.f.at(it).tree.Roots() {
			w := s.f.Window(r, it)
			if w < 0 || w >= s.f.Windows(it) || taken[w] {
				s.failf(t, "iteration %d: live root %d has window %d of %d, taken %v", it, r, w, s.f.Windows(it), taken)
			}
			taken[w] = true
		}
	}
}

// end runs the end of run on a state with no event left — every node
// whose Senders have exited flushes what it holds and exits — and
// asserts what must hold then.
func (s *xState) end(t *testing.T) {
	s = s.clone()
	var exited [xNodes]bool
	for left := s.n; left > 0; left-- {
		node := -1
		for n := 0; n < s.n && node < 0; n++ {
			if !exited[n] && !slices.ContainsFunc(s.f.Senders(n), func(k int) bool { return !exited[k] }) {
				node = n
			}
		}
		if node < 0 {
			s.failf(t, "Senders never empties: exited %v", exited)
		}
		for it := 0; it < xIters; it++ {
			if s.pending[node][it] != 0 {
				d := s.f.Flush(node, it)
				if d.Kind == Lose && s.f.Alive(node) {
					s.failf(t, "live node %d lost iteration %d covering %05b at its flush", node, it, s.pending[node][it])
				}
				s.carryOut(t, d, node, it)
			}
		}
		exited[node] = true
		// What the flush sent arrives before its receiver — which was
		// waiting for this node — can exit.
		for _, m := range s.inflight {
			if exited[m.to] {
				s.failf(t, "node %d flushed iteration %d to node %d, which had exited", node, m.it, m.to)
			}
			s.pending[m.to][m.it] |= m.covers
		}
		s.inflight = nil
	}
	died := len(s.f.dead) > 0
	for n := 0; n < s.n; n++ {
		for it := 0; it < xIters; it++ {
			if s.stored[n][it]+s.lost[n][it] != s.delivered[n][it] {
				s.failf(t, "block (%d, %d): delivered %d, stored %d, lost %d", n, it,
					s.delivered[n][it], s.stored[n][it], s.lost[n][it])
			}
			if !died && s.stored[n][it] != 1 {
				s.failf(t, "block (%d, %d) stored %d times in a run without a death", n, it, s.stored[n][it])
			}
		}
	}
	for it := 0; it < xIters; it++ {
		if !s.f.Done(it) {
			s.failf(t, "run ended with iteration %d not done", it)
		}
	}
}

// TestForestExhaustive enumerates every interleaving of begin, deliver,
// death and re-formation over two iterations: one death and one
// re-formation on forests of up to four nodes, one death or one
// re-formation on forests of five (both at five is ~800,000 states, 20 s).
func TestForestExhaustive(t *testing.T) {
	type scope struct {
		n               int
		deaths, reforms uint8
	}
	scopes := []scope{{5, 1, 0}, {5, 0, 1}}
	for n := 1; n < xNodes; n++ {
		scopes = append(scopes, scope{n, 1, 1})
	}
	states, ends := 0, 0
	for _, sc := range scopes {
		for _, shape := range xShapes[:2] {
			start := &xState{n: sc.n, f: NewForest(sc.n, shape[0], shape[1]), deaths: sc.deaths, reforms: sc.reforms}
			start.checkWindows(t)
			seen := map[string]bool{start.key(): true}
			stack := []*xState{start}
			for len(stack) > 0 {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				s.checkLedger(t)
				succ := s.next(t)
				if len(succ) == 0 {
					ends++
					s.end(t)
				}
				for _, c := range succ {
					if k := c.key(); !seen[k] {
						seen[k] = true
						stack = append(stack, c)
					}
				}
			}
			states += len(seen)
		}
	}
	t.Logf("%d states, %d ends of run", states, ends)
}
