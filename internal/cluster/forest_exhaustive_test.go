package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// This file checks Forest and Gather exhaustively at small scope
// (ROADMAP item 3(c)). Neither has a goroutine, lock or clock, so a
// minimal driver — one Gather per node, the same gather machine both
// faces run — can be stepped through every interleaving of its events:
//
//   - begin(n): node n contributes its own block of its next iteration
//     and asks Route for it (the first ask fences the iteration);
//   - deliver(m): a forwarded or drained batch in flight arrives, is
//     merged, and the receiver asks Route again;
//   - kill(n): node n dies at its next iteration (Fail), at most once;
//   - reform(shape): the forest re-forms (Reform), at most once, and
//     before any node exits;
//   - exit(n): node n, past Shutdown's eof, with nothing in flight to it
//     and every one of its Senders exited, flushes what it holds and
//     exits. Shutdown posts the eofs in node order, each once the node
//     has nothing left to forward (or has died), so n is past its eof
//     once nodes 0..n all are; an eof does nothing else, so taking it
//     as early as that covers every later one.
//
// A death and a re-formation wake every node holding data to ask again,
// as both faces do. Nodes run ahead of each other freely, as the runtime
// forwarders do, and Shutdown's eofs and exits interleave with the
// deaths and deliveries of nodes still draining. The search walks the
// reachable state graph — two interleavings that reach the same state
// continue identically, so every one of them is covered — and asserts
// in every state and at every end of run:
//
//   - every delivered block meets exactly one end, a Store or a counted
//     Lose, and only a dead node with nowhere to drain loses anything — a
//     run without a death stores every block exactly once (rules 1, 2, 4
//     are consequences: break one and a live root loses a late batch);
//   - no Store before Required is covered;
//   - windows partition the live roots of every iteration's epoch;
//   - Senders empties: every node gets to exit, and every iteration
//     ends Done;
//   - no batch is sent to a node that exited, because no node that is
//     still running has an exited node among its Receivers. A node dies
//     only before its eof; its Receivers then are a live ancestor, which
//     has it among its Senders, or — for a dead root — its first live
//     child, a higher node that Shutdown has not reached. So
//     Cluster.postTo never sees a batch for an exited aggregator.

const (
	xNodes = 5 // largest forest explored exhaustively
	xIters = 2

	// The driver's arrays hold FuzzForestEvents' larger scope.
	xMaxNodes = 12
	xMaxIters = 4
)

// xShapes are the (fanout, roots) shapes a run starts from (the first
// two) and re-forms to.
var xShapes = [][2]int{{2, 1}, {2, 2}, {4, 1}}

// xMsg is one batch in flight: iteration it's blocks of the origin nodes
// in the covers bitmask, on their way to node to.
type xMsg struct {
	to, it uint8
	covers uint16
}

// xBatch is the checker's payload: coverage is all it tracks.
type xBatch struct{}

func mergeX(xBatch, xBatch) xBatch { return xBatch{} }

// xState is the driver's whole state; the Forest and the Gathers are
// part of it.
type xState struct {
	n, iters int
	f        *Forest
	g        [xMaxNodes]*Gather[xBatch]
	pos      [xMaxNodes]uint8 // next iteration the node begins; iters once its stream ended
	inflight []xMsg           // kept sorted: a multiset
	deaths   uint8            // deaths and re-formations still allowed
	reforms  uint8
	exited   uint16 // bitmask of the nodes that exited
	// The ledger: per (origin, iteration), how often the block entered
	// the protocol, was stored, and was counted lost.
	delivered, stored, lost [xMaxNodes][xMaxIters]uint8

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

// newXState starts a run on a fresh forest of n nodes.
func newXState(n, iters, fanout, roots int, deaths, reforms uint8) *xState {
	s := &xState{n: n, iters: iters, f: NewForest(n, fanout, roots), deaths: deaths, reforms: reforms}
	for node := 0; node < n; node++ {
		s.g[node] = NewGather(s.f, node, mergeX)
	}
	return s
}

func (s *xState) clone() *xState {
	c := *s
	c.inflight = slices.Clone(s.inflight)
	f := *s.f
	f.epochs = make([]epoch, len(s.f.epochs))
	for i, e := range s.f.epochs {
		e.tree = e.tree.Clone()
		e.required, e.awaited = map[int]Cover{}, nil // memos
		f.epochs[i] = e
	}
	f.dead = slices.Clone(s.f.dead)
	f.stored = cloneMap(s.f.stored)
	f.covered = cloneMap(s.f.covered)
	f.doneRoots = cloneMap(s.f.doneRoots)
	f.completed = cloneMap(s.f.completed)
	c.f = &f
	for node := 0; node < s.n; node++ {
		g := *s.g[node]
		g.forest = &f
		g.held = slices.Clone(g.held)
		for i := range g.held {
			g.held[i].cover = slices.Clone(g.held[i].cover)
		}
		c.g[node] = &g
	}
	return &c
}

// bitmask is c as the checker's messages carry it.
func bitmask(c Cover) uint16 {
	if len(c) == 0 {
		return 0
	}
	return uint16(c[0])
}

// held returns what node's gather holds per iteration, as bitmasks.
func (s *xState) held(node int) (covers [xMaxIters]uint16) {
	s.g[node].Held(func(it int, _ xBatch, c Cover) { covers[it] = bitmask(c) })
	return covers
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
	b = append(b, s.deaths, s.reforms, uint8(s.exited), uint8(s.exited>>8),
		uint8(f.fence+1), uint8(len(f.dead)), uint8(len(f.epochs)))
	for _, d := range f.dead {
		b = append(b, uint8(d.node), uint8(d.at))
	}
	for _, e := range f.epochs {
		b = append(b, uint8(e.from), uint8(e.fanout), uint8(e.roots))
	}
	for n := 0; n < s.n; n++ {
		b = append(b, s.pos[n])
		held := s.held(n)
		for it := 0; it < s.iters; it++ {
			stored := uint8(0)
			if f.stored[[2]int{n, it}] {
				stored = 1
			}
			b = append(b, uint8(held[it]), uint8(held[it]>>8), s.delivered[n][it], s.stored[n][it], s.lost[n][it], stored)
		}
	}
	for it := 0; it < s.iters; it++ {
		b = append(b, uint8(f.covered[it]), uint8(f.doneRoots[it]))
	}
	for _, m := range s.inflight {
		b = append(b, m.to, m.it, uint8(m.covers), uint8(m.covers>>8))
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

func (s *xState) send(t *testing.T, m xMsg) {
	if s.exited&(1<<m.to) != 0 {
		s.failf(t, "a batch of iteration %d was sent to node %d, which had exited", m.it, m.to)
	}
	i, _ := slices.BinarySearchFunc(s.inflight, m, func(a, b xMsg) int {
		return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.it, b.it), cmp.Compare(a.covers, b.covers))
	})
	s.inflight = slices.Insert(s.inflight, i, m)
}

// deliver hands a message to its receiver's gather.
func (s *xState) deliver(m xMsg) {
	s.g[m.to].Deliver(int(m.it), xBatch{}, Cover{uint64(m.covers)})
}

// carryOut executes what the forest decided for the batch covering
// covered that node's gather released for iteration it.
func (s *xState) carryOut(t *testing.T, d Decision, node, it int, covered Cover) {
	switch d.Kind {
	case Store:
		for o := 0; o < s.n; o++ {
			if covered.Has(o) {
				s.stored[o][it]++
			}
		}
		s.f.RootDone(it, covered.Len())
	case Forward, Drain:
		s.send(t, xMsg{uint8(d.To), uint8(it), bitmask(covered)})
	case Lose:
		for o := 0; o < s.n; o++ {
			if covered.Has(o) {
				s.lost[o][it]++
			}
		}
	default:
		s.failf(t, "node %d iteration %d: decision %+v", node, it, d)
	}
}

// ask has node's gather put what it holds for iteration it to Route and
// carries the decision out, checking that a Store waited for its
// requirement.
func (s *xState) ask(t *testing.T, node, it int) {
	required := s.f.Required(node, it)
	d, _, covered := s.g[node].Ask(it)
	if d.Kind == NotReady {
		return
	}
	if d.Kind == Lose && s.f.Alive(node) {
		// Rules 1 and 4: no root stores ahead of data that is certain to
		// arrive, so mid-run only a dead end loses anything.
		s.failf(t, "live node %d lost iteration %d covering %v mid-run", node, it, covered.Nodes(nil))
	}
	if d.Kind == Store {
		if !covered.Contains(required) {
			s.failf(t, "node %d stored iteration %d covering %v before Required %v was covered",
				node, it, covered.Nodes(nil), required.Nodes(nil))
		}
	}
	s.carryOut(t, d, node, it, covered)
}

// askAll is the wake-up after a death or a re-formation.
func (s *xState) askAll(t *testing.T) {
	for node := 0; node < s.n; node++ {
		for it := 0; it < s.iters; it++ {
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
	// Once no death or re-formation can come, an exit's outcome does not
	// depend on when it happens — the node has everything it will ever
	// receive — so the first exit possible is the only successor.
	structural := s.reforms > 0 && s.exited == 0
	for node := 0; node < s.n; node++ {
		structural = structural || s.deaths > 0 && int(s.pos[node]) < s.iters
	}
	for node := 0; !structural && node < s.n && int(s.pos[node]) == s.iters; node++ {
		if s.canExit(node) {
			branch(xEvent{kind: "exit", a: node}, func(c *xState) { c.exit(t, node) })
			return out
		}
	}
	for node := 0; node < s.n; node++ {
		node, it := node, int(s.pos[node])
		if it == s.iters {
			continue
		}
		branch(xEvent{kind: "begin", a: node, b: it}, func(c *xState) {
			c.pos[node]++
			c.delivered[node][it]++
			c.g[node].Deliver(it, xBatch{}, Cover{1 << node})
			c.ask(t, node, it)
		})
		if s.deaths > 0 {
			branch(xEvent{kind: "kill", a: node, b: it}, func(c *xState) {
				c.deaths--
				c.pos[node] = uint8(s.iters)
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
			c.deliver(m)
			c.ask(t, int(m.to), int(m.it))
		})
	}
	if s.reforms > 0 && s.exited == 0 {
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
	for node := 0; node < s.n && int(s.pos[node]) == s.iters; node++ {
		if s.canExit(node) {
			branch(xEvent{kind: "exit", a: node}, func(c *xState) { c.exit(t, node) })
		}
	}
	return out
}

// canExit reports whether node's aggregator may return, as finished
// decides it: nothing in flight to it and every sender exited.
func (s *xState) canExit(node int) bool {
	if s.exited&(1<<node) != 0 {
		return false
	}
	for _, m := range s.inflight {
		if int(m.to) == node {
			return false
		}
	}
	return Cover{uint64(s.exited)}.Contains(s.f.Senders(node))
}

// exit is the aggregator's last step: flush whatever node holds, then
// exit.
func (s *xState) exit(t *testing.T, node int) {
	s.g[node].Step(true, func(it int, d Decision, _ xBatch, covered Cover) bool {
		if d.Kind == Lose && s.f.Alive(node) {
			s.failf(t, "live node %d lost iteration %d covering %v at its flush", node, it, covered.Nodes(nil))
		}
		s.carryOut(t, d, node, it, covered)
		return false
	})
	s.exited |= 1 << node
}

// checkLedger asserts, in every state, that no block has met more ends
// than it was delivered and that no running node can still send to an
// exited one.
func (s *xState) checkLedger(t *testing.T) {
	for n := 0; n < s.n; n++ {
		if s.exited&(1<<n) == 0 && uint16(bitmask(s.f.Receivers(n)))&s.exited != 0 {
			s.failf(t, "running node %d has receivers %v, exited %v", n,
				s.f.Receivers(n).Nodes(nil), Cover{uint64(s.exited)}.Nodes(nil))
		}
	}
	for o := 0; o < s.n; o++ {
		for it := 0; it < s.iters; it++ {
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
	for it := 0; it < s.iters; it++ {
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

// end asserts what must hold once no event is left: every node exited
// and every block met exactly one end.
func (s *xState) end(t *testing.T) {
	if s.exited != 1<<s.n-1 {
		s.failf(t, "Senders never empties: exited %v", Cover{uint64(s.exited)}.Nodes(nil))
	}
	died := len(s.f.dead) > 0
	for n := 0; n < s.n; n++ {
		for it := 0; it < s.iters; it++ {
			if s.stored[n][it]+s.lost[n][it] != s.delivered[n][it] {
				s.failf(t, "block (%d, %d): delivered %d, stored %d, lost %d", n, it,
					s.delivered[n][it], s.stored[n][it], s.lost[n][it])
			}
			if !died && s.stored[n][it] != 1 {
				s.failf(t, "block (%d, %d) stored %d times in a run without a death", n, it, s.stored[n][it])
			}
		}
	}
	for it := 0; it < s.iters; it++ {
		if !s.f.Done(it) {
			s.failf(t, "run ended with iteration %d not done", it)
		}
	}
}

// TestForestExhaustive enumerates every interleaving of begin, deliver,
// death, re-formation and exit over two iterations: one death and one
// re-formation on forests of up to four nodes, one death or one
// re-formation on forests of five.
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
			start := newXState(sc.n, xIters, shape[0], shape[1], sc.deaths, sc.reforms)
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

// FuzzForestEvents walks one path through the checker's successor
// function beyond the exhaustive scope: up to 12 nodes, 4 iterations,
// 2 deaths and 2 re-formations. The first five bytes pick the forest
// size, the iterations, the deaths and re-formations allowed and the
// starting shape; each later byte picks the next event, and once the
// bytes run out the first event left is taken until none is. The
// invariants are the exhaustive search's, checked after every event and
// at the end of the run.
func FuzzForestEvents(f *testing.F) {
	f.Add([]byte{11, 3, 2, 2, 0})
	f.Add([]byte{8, 1, 1, 1, 1, 3, 200, 7, 9, 14, 0, 255, 31, 5, 5, 5, 90})
	f.Add([]byte{6, 2, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{11, 3, 0, 2, 1, 250, 13, 77, 2, 2, 2, 40, 41, 42, 43, 44})
	// Three nodes, one death: a live node loses a batch here at its flush
	// when rule 1 (late drain) is broken.
	f.Add([]byte("2110101"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		shape := xShapes[data[4]%2]
		s := newXState(1+int(data[0])%xMaxNodes, 1+int(data[1])%xMaxIters, shape[0], shape[1], data[2]%3, data[3]%3)
		s.checkWindows(t)
		for path := data[5:]; ; {
			s.checkLedger(t)
			succ := s.next(t)
			if len(succ) == 0 {
				break
			}
			pick := 0
			if len(path) > 0 {
				pick, path = int(path[0])%len(succ), path[1:]
			}
			s = succ[pick]
		}
		s.end(t)
	})
}
