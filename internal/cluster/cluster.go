package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/storage"
)

// Hook is a cluster-wide end-of-iteration plugin: it runs at a tree
// root once that root's whole subtree has delivered an iteration, with
// the merged batch still in memory. The batch is normalized before the
// hook runs, so hooks observe the same (node, source, variable) order
// that EncodeBatch later stores, regardless of arrival order. Block
// payloads live in pooled buffers that are recycled right after the
// iteration is stored — a hook that wants bytes past its own return
// must copy them.
type Hook interface {
	// Name identifies the hook in errors.
	Name() string
	// OnIteration sees the merged batch before it is stored.
	OnIteration(it int, b *Batch) error
}

// HookFunc adapts a function to the Hook interface.
type HookFunc struct {
	HookName string
	Fn       func(it int, b *Batch) error
}

// Name implements Hook.
func (h HookFunc) Name() string { return h.HookName }

// OnIteration implements Hook.
func (h HookFunc) OnIteration(it int, b *Batch) error { return h.Fn(it, b) }

// Stats aggregates what the cluster measured.
type Stats struct {
	// BatchesForwarded counts node→parent transfers.
	BatchesForwarded int
	// BytesForwarded is the payload volume of those transfers.
	BytesForwarded int64
	// ObjectsWritten counts root data objects handed to the store
	// (manifests are counted separately in ManifestsWritten).
	ObjectsWritten int
	// ObjectBytes is the encoded size of those objects.
	ObjectBytes int64
	// ManifestsWritten counts per-iteration manifest objects stored
	// alongside the data objects (one per data object unless
	// ClusterConfig.DisableManifests is set or the manifest Put failed).
	ManifestsWritten int
	// IterationsCompleted counts iterations all live roots finished.
	IterationsCompleted int
	// PartialIterations counts the distinct iterations some root stored
	// without its full live-subtree coverage (stragglers or orphaned
	// data flushed at shutdown — data loss tolerated, as in the paper's
	// skip policy). An iteration missing only dead nodes' data is not
	// partial; that loss is visible in Completeness instead.
	PartialIterations int
	// NodesFailed counts nodes killed by the failure schedule.
	NodesFailed int
	// BlocksLost counts blocks that never reached a root object:
	// produced on a dead node, or orphaned with nowhere to drain.
	BlocksLost int
	// ReroutedEdges counts tree edges moved by failures, including
	// root promotions.
	ReroutedEdges int
	// TreeReforms counts mid-run topology re-formations (Reform): new
	// tree epochs opened by elastic adaptation. Failures re-route
	// edges inside an epoch and are counted separately above.
	TreeReforms int
	// Completeness maps iteration → fraction of the cluster's nodes
	// whose blocks reached a stored root object for that iteration
	// (1.0 for every iteration when nothing fails or straggles).
	Completeness map[int]float64
	// QuotaDroppedObjects counts root objects skipped because storing
	// them would cross the tenant's Quota.MaxBytes — the skip policy
	// applied to budget rather than time.
	QuotaDroppedObjects int
	// ObjectsReleased counts objects (data and manifests) the retention
	// window aged out of the store's reference set (RunSpec.Retain on a
	// storage.Retainer store). Released objects stay readable until the
	// store's next GC sweep.
	ObjectsReleased int

	// Token-broker counters, populated only when the run has a broker.
	// On a broker shared across tenants, every counter below is THIS
	// tenant's slice (grants are holder-tagged; see ClusterConfig.Broker).

	// TokenWaitTime is the total wall-clock seconds roots spent waiting
	// for a write token; TokenGrants counts tokens granted.
	TokenWaitTime float64
	TokenGrants   int
	// RootTokenWait splits TokenWaitTime per (tenant-local) root node
	// id, and RootContention counts each root's grants that had to
	// queue behind another root — same-tenant or cross-tenant — the
	// interference the broker absorbed.
	RootTokenWait  map[int]float64
	RootContention map[int]int
	// TokensReclaimed counts tokens (held or queued) freed because
	// their holder was killed by the failure schedule or evicted.
	TokensReclaimed int
}

// add accumulates another tenant's counters into s (map fields are
// summed key-wise; Completeness keys collide only within one tenant, so
// the union is taken). Used by ServiceStats rollups.
func (s *Stats) add(o Stats) {
	s.BatchesForwarded += o.BatchesForwarded
	s.BytesForwarded += o.BytesForwarded
	s.ObjectsWritten += o.ObjectsWritten
	s.ObjectBytes += o.ObjectBytes
	s.ManifestsWritten += o.ManifestsWritten
	s.IterationsCompleted += o.IterationsCompleted
	s.PartialIterations += o.PartialIterations
	s.NodesFailed += o.NodesFailed
	s.BlocksLost += o.BlocksLost
	s.ReroutedEdges += o.ReroutedEdges
	s.TreeReforms += o.TreeReforms
	s.QuotaDroppedObjects += o.QuotaDroppedObjects
	s.ObjectsReleased += o.ObjectsReleased
	s.TokenWaitTime += o.TokenWaitTime
	s.TokenGrants += o.TokenGrants
	s.TokensReclaimed += o.TokensReclaimed
}

// Cluster is a multi-node Damaris deployment: N per-node middleware
// instances plus the cross-node aggregation layer. It is one tenant's
// view of the machine — under a Service, several Clusters share the
// ClusterConfig's store and broker, each tagging broker requests with
// its own tenant id and holder span.
type Cluster struct {
	cc         ClusterConfig
	spec       RunSpec
	tenant     int // tenant id on the shared broker (0 standalone)
	holderBase int // first broker holder id of this tenant's span
	nodes      []*core.Node
	aggs       []*aggregator
	wg         sync.WaitGroup

	// mu guards the tree epochs (failures re-route them and Reform
	// appends new ones mid-run), the stats and the exited flags. Each
	// aggregator's mailbox has its own lock (aggregator.mboxMu) so
	// concurrent leaf deliveries do not contend on one cluster-wide
	// mutex; routing lookups and the posts they decide still happen
	// while c.mu is held, so a re-route or re-formation stays atomic
	// with respect to in-flight deliveries. Lock order: c.mu before
	// mboxMu, never the reverse.
	mu sync.Mutex
	// epochs is the topology history, ascending by fromIter; the last
	// entry is the current tree. Iteration k routes through treeFor(k)
	// for its whole life — parent lookup, coverage requirement, root
	// set, broker window — so re-formation never strands an in-flight
	// iteration (see Reform in adapt.go).
	epochs    []treeEpoch
	maxRouted int // highest iteration any routing decision was made for
	failEpoch int // bumped by killNode and Reform; invalidates coverage caches
	stats     Stats
	covered   map[int]int  // iteration → origin nodes stored at roots
	partials  map[int]bool // iterations stored below full live coverage
	completed map[int]bool // iterations done at every live root
	failed    []bool       // node → killed by the schedule
	exited    []bool       // node → aggregator goroutine returned
	errs      []error
	doneRoots map[int]int // iteration → roots that stored it
	iterDone  *sync.Cond
}

// New builds and starts a standalone single-tenant cluster: every
// node's shared-memory runtime, the forwarding plugin on each dedicated
// core, and one aggregator per node. It takes the same two halves a
// Service does — the substrate and what one run does on it — and runs
// them as tenant 0.
func New(cc ClusterConfig, spec RunSpec) (*Cluster, error) {
	return newTenantCluster(cc, spec, 0)
}

// newTenantCluster builds and starts one tenant's cluster on the given
// substrate. The tenant id selects the holder span its broker requests
// are tagged with; a standalone run is tenant 0, whose span starts at
// holder 0 so broker holder ids equal node ids as before.
func newTenantCluster(cc ClusterConfig, spec RunSpec, tenant int) (*Cluster, error) {
	cc = cc.withDefaults()
	spec = spec.withDefaults()
	if cc.Platform.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: platform has %d nodes", cc.Platform.Nodes)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if cc.Store == nil {
		return nil, fmt.Errorf("cluster: nil object store")
	}
	clients := cc.Platform.CoresPerNode - cc.DedicatedPerNode
	if clients <= 0 {
		return nil, fmt.Errorf("cluster: %d cores/node leaves no simulation cores",
			cc.Platform.CoresPerNode)
	}

	c := &Cluster{
		cc:         cc,
		spec:       spec,
		tenant:     tenant,
		holderBase: tenantHolderBase(tenant),
		epochs:     []treeEpoch{{tree: NewTree(cc.Platform.Nodes, cc.Fanout, cc.Roots)}},
		maxRouted:  -1,
		nodes:      make([]*core.Node, cc.Platform.Nodes),
		aggs:       make([]*aggregator, cc.Platform.Nodes),
		covered:    map[int]int{},
		partials:   map[int]bool{},
		completed:  map[int]bool{},
		failed:     make([]bool, cc.Platform.Nodes),
		exited:     make([]bool, cc.Platform.Nodes),
		doneRoots:  map[int]int{},
	}
	c.iterDone = sync.NewCond(&c.mu)

	for i := range c.aggs {
		a := &aggregator{
			c:       c,
			node:    i,
			pending: map[int]*pendingIter{},
			eofFrom: map[int]bool{},
			stored:  map[int]bool{},
			written: map[int]bool{},
		}
		a.avail = sync.NewCond(&a.mboxMu)
		c.aggs[i] = a
	}
	for i := range c.nodes {
		nodeID := i
		opts := core.Options{
			NodeID:    nodeID,
			OutputDir: cc.OutputDir,
			Logger:    cc.Logger,
			ExtraPlugins: map[string][]core.Plugin{
				"end_iteration": {&forwarder{agg: c.aggs[nodeID]}},
			},
		}
		n, err := core.NewNode(spec.Meta, clients, opts)
		if err != nil {
			for j := 0; j < i; j++ {
				c.nodes[j].Shutdown()
			}
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = n
	}
	for _, a := range c.aggs {
		c.wg.Add(1)
		go a.run()
	}
	return c, nil
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// Tree returns a snapshot of the current aggregation topology — the
// latest epoch — including any failure re-routing applied so far.
func (c *Cluster) Tree() Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curTree().Clone()
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// ClientsPerNode returns the simulation client count on each node —
// what a driver loops over when it writes through Client.
func (c *Cluster) ClientsPerNode() int {
	return c.cc.Platform.CoresPerNode - c.cc.DedicatedPerNode
}

// Node returns one node's middleware instance.
func (c *Cluster) Node(i int) *core.Node { return c.nodes[i] }

// Client returns the handle for simulation core source on node i.
func (c *Cluster) Client(node, source int) *core.Client {
	return c.nodes[node].Client(source)
}

// Stats returns a snapshot of the cluster counters. Token counters are
// carved out of the (possibly shared) broker's holder-tagged ledger:
// only grants and waits of this tenant's holder span count, keyed back
// to tenant-local node ids — so two tenants on one broker each see
// exactly their own slice, and the slices sum to the broker totals.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	s.Completeness = make(map[int]float64, len(c.covered))
	for it, n := range c.covered {
		s.Completeness[it] = float64(n) / float64(len(c.nodes))
	}
	c.mu.Unlock()
	if c.cc.Broker != nil {
		bs := c.cc.Broker.Stats()
		lo, hi := c.holderBase, c.holderBase+len(c.nodes)
		for h, n := range bs.GrantsByHolder {
			if h >= lo && h < hi {
				s.TokenGrants += n
			}
		}
		s.RootTokenWait = map[int]float64{}
		for h, w := range bs.WaitByHolder {
			if h >= lo && h < hi {
				s.RootTokenWait[h-lo] = w
				s.TokenWaitTime += w
			}
		}
		s.RootContention = map[int]int{}
		for h, n := range bs.ContendedByHolder {
			if h >= lo && h < hi {
				s.RootContention[h-lo] = n
			}
		}
	}
	return s
}

// Tenant returns the tenant id this cluster runs as (0 standalone).
func (c *Cluster) Tenant() int { return c.tenant }

// objectName is the deterministic name root node stores iteration it
// under — shared by the write path and the retention release so the two
// can never drift.
func (c *Cluster) objectName(node, it int) string {
	return fmt.Sprintf("%s-root%03d-it%06d", c.spec.JobName, node, it)
}

// rootTargets maps a root to its broker target window for one
// iteration: one BrokerStripes-wide window per aggregation tree,
// indexed by the subtree the root leads in the iteration's epoch — a
// promoted root inherits the dead root's window, mirroring the DES
// side's rootOrdinal inheritance, and a re-formed epoch gets its own
// window layout without disturbing older iterations'.
func (c *Cluster) rootTargets(node, it int) []int {
	stripes := c.cc.BrokerStripes
	if stripes < 1 {
		stripes = 1
	}
	c.mu.Lock()
	idx := c.treeFor(it).SubtreeIndex(node)
	c.mu.Unlock()
	targets := make([]int, stripes)
	for i := range targets {
		targets[i] = idx*stripes + i
	}
	return targets
}

// Errors returns the aggregation/store/hook errors collected so far.
func (c *Cluster) Errors() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// WaitIteration blocks until every live tree root has stored iteration
// it. A failure mid-wait shrinks the requirement to the surviving
// roots, so a killed node cannot wedge the caller; when every root is
// dead, nothing more will ever be stored and the wait returns.
func (c *Cluster) WaitIteration(it int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.completed[it] && len(c.treeFor(it).Roots()) > 0 {
		c.iterDone.Wait()
	}
}

// Shutdown drains every node, flushes the aggregation trees and
// returns the first error observed anywhere in the cluster.
func (c *Cluster) Shutdown() error {
	var first error
	for i, n := range c.nodes {
		// Draining the node runs every queued end_iteration, so the
		// forwarder has delivered everything before the eof below.
		if err := n.Shutdown(); err != nil && first == nil {
			first = fmt.Errorf("node %d: %w", i, err)
		}
		c.mu.Lock()
		c.postTo(i, aggMsg{eof: true, from: i})
		c.mu.Unlock()
	}
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if first == nil && len(c.errs) > 0 {
		first = c.errs[0]
	}
	return first
}

func (c *Cluster) fail(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
	c.cc.Logger.Printf("cluster: %v", err)
}

// Cancel evicts the run mid-flight: every node is killed as if the
// failure schedule had fired, which re-routes nothing (the whole forest
// dies), reclaims the tenant's broker tokens, drains in-flight merges
// into the lost-blocks accounting — returning their pooled payload
// buffers — and then shuts the nodes down. Safe to call at any point,
// including concurrently with client writes; it is how a Service
// enforces an eviction.
func (c *Cluster) Cancel() error {
	for i := range c.nodes {
		c.killNode(i, 0)
	}
	return c.Shutdown()
}

// killNode executes one scheduled death: atomically re-route the tree,
// then tell the dead node's aggregator to flush and every survivor to
// re-check completion against the shrunken coverage requirements.
// blocksDropped are the dead node's own blocks for the triggering
// iteration — the mid-iteration loss. Repeat calls (every later
// iteration of the dead node) only account further dropped blocks.
func (c *Cluster) killNode(d, blocksDropped int) {
	c.mu.Lock()
	c.stats.BlocksLost += blocksDropped
	if c.failed[d] {
		c.mu.Unlock()
		return
	}
	c.failed[d] = true
	// The death applies to every epoch: an in-flight iteration routing
	// through an older tree must re-route around the corpse too. Edge
	// accounting reports the current epoch's re-routing.
	var edges []RerouteEdge
	for i := range c.epochs {
		e := c.epochs[i].tree.Fail(d)
		if i == len(c.epochs)-1 {
			edges = e
		}
	}
	c.failEpoch++
	c.stats.NodesFailed++
	c.stats.ReroutedEdges += len(edges)
	if c.cc.Broker != nil {
		// A dead root must not strand a write token for the rest of the
		// run: free what it holds, cancel what it queued for. The count
		// accumulates locally — on a shared broker, the global
		// HolderReleases tally mixes in other tenants' reclaims.
		c.stats.TokensReclaimed += c.cc.Broker.ReleaseHolder(c.holderBase + d)
	}
	c.postTo(d, aggMsg{die: true})
	for i, a := range c.aggs {
		if i != d && !c.exited[i] {
			a.post(aggMsg{poke: true})
		}
	}
	// Iterations waiting on the dead root's store may be complete now.
	for it := range c.doneRoots {
		c.checkIterComplete(it)
	}
	c.mu.Unlock()
	c.iterDone.Broadcast()
	c.cc.Logger.Printf("cluster: node %d failed, %d edges re-routed", d, len(edges))
}

// postTo delivers a message to node i's aggregator, counting a batch as
// lost when that aggregator already exited. Callers hold c.mu.
func (c *Cluster) postTo(i int, m aggMsg) {
	if c.exited[i] {
		if m.batch != nil {
			c.stats.BlocksLost += len(m.batch.Blocks)
			m.batch.ReleaseBuffers()
		}
		return
	}
	c.aggs[i].post(m)
}

// noteRootStored records one root having stored an iteration. Callers
// hold c.mu.
func (c *Cluster) noteRootStored(it int) {
	c.doneRoots[it]++
	c.checkIterComplete(it)
}

// checkIterComplete marks an iteration completed once every live root
// of the iteration's epoch has stored it. A forest with no live roots
// left completes nothing — WaitIteration observes that state directly
// instead. Callers hold c.mu.
func (c *Cluster) checkIterComplete(it int) {
	roots := len(c.treeFor(it).Roots())
	if roots > 0 && !c.completed[it] && c.doneRoots[it] >= roots {
		c.completed[it] = true
		c.stats.IterationsCompleted++
	}
}

// forwarder is the per-node plugin that snapshots a completed
// iteration out of shared memory and hands it to the aggregation
// layer. It runs on the dedicated core, before the node frees the
// iteration's blocks. It is also the failure injection point: a node
// scheduled to die at iteration k drops everything from k on.
type forwarder struct{ agg *aggregator }

// Name implements core.Plugin.
func (f *forwarder) Name() string { return "cluster-forward" }

// OnEvent implements core.Plugin.
func (f *forwarder) OnEvent(ctx *core.PluginContext, ev core.Event) error {
	c := f.agg.c
	refs := ctx.Index.Iteration(ev.Iteration)
	if at, ok := c.spec.Failures.At(f.agg.node); ok && ev.Iteration >= at {
		c.killNode(f.agg.node, len(refs))
		return nil
	}
	b := &Batch{Iteration: ev.Iteration}
	for _, ref := range refs {
		b.Blocks = append(b.Blocks, Block{
			Node:     ctx.NodeID,
			Source:   ref.Key.Source,
			Variable: ref.Key.Variable,
			// The node frees the shared-memory block right after the
			// plugins return; the copy decouples aggregation from it.
			// The snapshot buffer comes from the pool and is recycled
			// once the batch reaches a root object (or is dropped).
			Data: buf.Clone(ctx.BlockBytes(ref)),
		})
	}
	f.agg.post(aggMsg{batch: b, covers: []int{f.agg.node}, from: f.agg.node})
	return nil
}

// aggMsg is one message into an aggregator's mailbox: a batch tagged
// with the origin nodes it covers, a producer's end-of-stream marker, a
// death order, or a poke to re-check completion after a re-route.
type aggMsg struct {
	batch  *Batch
	covers []int // origin node ids whose data the batch carries
	from   int   // sending node (producer identity for eof)
	eof    bool
	die    bool
	poke   bool
}

// pendingIter accumulates one iteration's contributions at a node.
type pendingIter struct {
	batch   *Batch
	covered map[int]bool // origin nodes merged so far
}

// aggregator is one node's position in the aggregation tree: it merges
// the node's own iteration batches with its children's and forwards
// the result upward, or stores it when the node is a root. An
// iteration is complete when its coverage set spans the node's live
// subtree — a requirement that shrinks when nodes die, which is what
// lets the forest re-route around failures without deadlocking.
type aggregator struct {
	c    *Cluster
	node int

	// mboxMu guards this aggregator's mailbox alone, so deliveries to
	// different nodes never contend with each other (c.mu used to guard
	// every mailbox and was the aggregation layer's hottest lock).
	// Acquired after c.mu when both are needed.
	mboxMu sync.Mutex
	avail  *sync.Cond // on mboxMu
	mbox   []aggMsg   // unbounded so posts never block

	// Goroutine-local state (only touched by run()).
	pending  map[int]*pendingIter
	eofFrom  map[int]bool
	stored   map[int]bool // iterations this root has stored
	written  map[int]bool // iterations whose object actually landed (retention)
	dead     bool
	reqCache map[int][]int // epoch index → memoized live subtree, valid while reqEpoch holds
	reqEpoch int
}

// post enqueues a message. Safe with or without c.mu held (routing
// callers hold it; the forwarder does not).
func (a *aggregator) post(m aggMsg) {
	a.mboxMu.Lock()
	a.mbox = append(a.mbox, m)
	a.mboxMu.Unlock()
	a.avail.Signal()
}

// recv dequeues the next message, blocking until one arrives.
func (a *aggregator) recv() aggMsg {
	a.mboxMu.Lock()
	for len(a.mbox) == 0 {
		a.avail.Wait()
	}
	m := a.mbox[0]
	a.mbox[0] = aggMsg{}
	a.mbox = a.mbox[1:]
	a.mboxMu.Unlock()
	return m
}

// mboxEmpty reports whether the mailbox is drained.
func (a *aggregator) mboxEmpty() bool {
	a.mboxMu.Lock()
	defer a.mboxMu.Unlock()
	return len(a.mbox) == 0
}

func (a *aggregator) run() {
	c := a.c
	for {
		m := a.recv()
		switch {
		case m.die:
			a.die()
		case m.eof:
			a.eofFrom[m.from] = true
		case m.batch != nil:
			if a.dead {
				// Late delivery that raced the re-route: relay it toward
				// the drain target, coverage intact.
				a.drainUp(m.batch, m.covers)
				continue
			}
			p := a.pending[m.batch.Iteration]
			if p == nil {
				p = &pendingIter{
					batch:   &Batch{Iteration: m.batch.Iteration},
					covered: map[int]bool{},
				}
				a.pending[m.batch.Iteration] = p
			}
			p.batch.merge(m.batch)
			for _, n := range m.covers {
				p.covered[n] = true
			}
		}
		if !a.dead {
			a.emitComplete()
		}
		if a.finished() {
			break
		}
	}
	if !a.dead {
		// Every producer is done: flush incomplete iterations upward
		// rather than losing them silently (partial data beats no data —
		// the same trade the §V.C skip policy makes).
		for _, it := range a.pendingIterations() {
			p := a.pending[it]
			delete(a.pending, it)
			a.emit(p.batch, p.covered, true)
		}
	}
	c.mu.Lock()
	if !a.dead {
		// The eof goes to every node that considers this one a child in
		// any epoch — a parent from an older topology may still be
		// waiting on it for an in-flight iteration.
		for _, parent := range c.parentsUnion(a.node) {
			c.postTo(parent, aggMsg{eof: true, from: a.node})
		}
	}
	c.exited[a.node] = true
	c.mu.Unlock()
	c.wg.Done()
}

// die flushes the node's in-flight merges toward the drain target as
// orphaned partials and switches the aggregator into relay mode.
func (a *aggregator) die() {
	a.dead = true
	for _, it := range a.pendingIterations() {
		p := a.pending[it]
		delete(a.pending, it)
		a.drainUp(p.batch, sortedCovers(p.covered))
	}
}

// pendingIterations returns the pending iteration numbers ascending,
// so flush order (and stored partial objects) is deterministic.
func (a *aggregator) pendingIterations() []int {
	its := make([]int, 0, len(a.pending))
	for it := range a.pending {
		its = append(its, it)
	}
	sort.Ints(its)
	return its
}

// finished reports whether every producer this aggregator still waits
// on has signalled end-of-stream. A dead aggregator only waits for its
// own node's eof (delivered by Shutdown); a live one also waits for
// every currently live child that has not already exited. The mailbox
// must be drained too: a child that exited may still have unprocessed
// deliveries queued here, and they must be merged before the flush.
func (a *aggregator) finished() bool {
	if !a.eofFrom[a.node] {
		return false
	}
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !a.mboxEmpty() {
		return false
	}
	if a.dead {
		return true
	}
	// Wait on the union of children across epochs: any node that might
	// still forward an in-flight iteration here must end its stream
	// first. The union graph stays acyclic because every tree keeps
	// parent id < child id, re-routing included.
	for _, k := range c.childrenUnion(a.node) {
		if !a.eofFrom[k] && !c.exited[k] {
			return false
		}
	}
	return true
}

// emitComplete emits every pending iteration whose coverage spans the
// node's live subtree in that iteration's epoch. The subtree walks are
// memoized per epoch — the topology only changes when a node dies or
// the forest re-forms, both of which bump failEpoch.
func (a *aggregator) emitComplete() {
	c := a.c
	c.mu.Lock()
	if a.reqCache == nil || a.reqEpoch != c.failEpoch {
		a.reqCache = map[int][]int{}
		a.reqEpoch = c.failEpoch
	}
	var ready []int
	for it, p := range a.pending {
		ei := c.epochIndexFor(it)
		required, ok := a.reqCache[ei]
		if !ok {
			required = c.epochs[ei].tree.LiveSubtree(a.node)
			a.reqCache[ei] = required
		}
		if CoversAll(p.covered, required) {
			ready = append(ready, it)
		}
	}
	c.mu.Unlock()
	sort.Ints(ready)
	for _, it := range ready {
		p := a.pending[it]
		delete(a.pending, it)
		a.emit(p.batch, p.covered, false)
	}
}

func sortedCovers(covered map[int]bool) []int {
	covers := make([]int, 0, len(covered))
	for n := range covered {
		covers = append(covers, n)
	}
	sort.Ints(covers)
	return covers
}

// drainUp forwards a batch toward the dead node's drain target,
// counting it as lost when there is none.
func (a *aggregator) drainUp(b *Batch, covers []int) {
	c := a.c
	c.mu.Lock()
	c.noteRouted(b.Iteration)
	dest, ok := c.treeFor(b.Iteration).DrainTarget(a.node)
	if !ok {
		c.stats.BlocksLost += len(b.Blocks)
		b.ReleaseBuffers()
	} else {
		c.stats.BatchesForwarded++
		c.stats.BytesForwarded += int64(b.Bytes())
		c.postTo(dest, aggMsg{batch: b, covers: covers, from: a.node})
	}
	c.mu.Unlock()
}

// emit sends a merged batch to the parent, or stores it at a root.
// partial marks batches flushed without full live coverage.
func (a *aggregator) emit(b *Batch, covered map[int]bool, partial bool) {
	c := a.c
	covers := sortedCovers(covered)
	c.mu.Lock()
	c.noteRouted(b.Iteration)
	if c.failed[a.node] {
		// Killed between recv and emit: the data still drains upward.
		c.mu.Unlock()
		a.drainUp(b, covers)
		return
	}
	if parent, ok := c.treeFor(b.Iteration).Parent(a.node); ok {
		c.stats.BatchesForwarded++
		c.stats.BytesForwarded += int64(b.Bytes())
		c.postTo(parent, aggMsg{batch: b, covers: covers, from: a.node})
		c.mu.Unlock()
		return
	}
	if a.stored[b.Iteration] {
		// A straggler for an iteration this root already stored: the
		// object is immutable, so the late blocks are lost.
		c.stats.BlocksLost += len(b.Blocks)
		c.mu.Unlock()
		b.ReleaseBuffers()
		return
	}
	a.stored[b.Iteration] = true
	c.mu.Unlock()

	// Cluster-wide write scheduling: claim this root's target window
	// before touching the store, earliest iteration first, so roots of
	// different trees — this tenant's or another's — never hit the same
	// target at once. The request carries the tenant identity the
	// shared broker arbitrates and accounts by.
	if c.cc.Broker != nil {
		deadline := float64(b.Iteration)
		if c.spec.Deadline > 0 {
			deadline += c.spec.Deadline
		}
		grant := c.cc.Broker.Acquire(storage.TokenRequest{
			Holder:   c.holderBase + a.node,
			Tenant:   c.tenant,
			Priority: c.spec.Priority,
			Weight:   c.spec.Weight,
			Targets:  c.rootTargets(a.node, b.Iteration),
			Deadline: deadline,
			Bytes:    float64(b.Bytes()),
		})
		if grant.Denied {
			// Killed while queued for the token: the write never starts;
			// the batch drains toward the re-route target instead.
			delete(a.stored, b.Iteration)
			a.drainUp(b, covers)
			return
		}
		defer grant.Release()
	}

	// Root: normalize so hooks and the stored object agree on block
	// order, run the cluster-wide hooks on the merged subtree, then the
	// batch becomes one large sequential object on the backend. The
	// write is scatter-gather: only the small framing headers are newly
	// built, payload segments alias the batch's pooled buffers, and the
	// backend gathers (or discards) them in its own single copy.
	b.normalize()
	for _, h := range c.spec.Hooks {
		if err := h.OnIteration(b.Iteration, b); err != nil {
			c.fail(fmt.Errorf("hook %q on iteration %d: %w", h.Name(), b.Iteration, err))
		}
	}
	segs := EncodeBatchVec(b)
	objLen := storage.SegsLen(segs)

	// Byte-quota enforcement: a tenant whose next object would cross
	// its MaxBytes budget skips the write — the §V.C skip policy applied
	// to budget instead of time. The iteration still completes (waiters
	// must not hang on an over-budget tenant); the loss is visible in
	// QuotaDroppedObjects, BlocksLost and Completeness.
	if max := c.spec.Quota.MaxBytes; max > 0 {
		c.mu.Lock()
		over := c.stats.ObjectBytes+int64(objLen) > max
		if over {
			c.stats.QuotaDroppedObjects++
			c.stats.BlocksLost += len(b.Blocks)
			c.noteRootStored(b.Iteration)
		}
		c.mu.Unlock()
		if over {
			c.iterDone.Broadcast()
			b.ReleaseBuffers()
			return
		}
	}

	name := c.objectName(a.node, b.Iteration)
	err := storage.PutVec(c.cc.Store, name, segs)
	var manifestStored bool
	if err == nil && !c.cc.DisableManifests {
		// The manifest rides along with the data: a small index object
		// Restore navigates by without touching any payload. A failed
		// manifest Put degrades the run to unreplayable, not broken —
		// the data object is already durable.
		m := newManifest(c.spec.JobName, a.node, name, b, covers, partial)
		if ci, ok := c.cc.Store.(storage.ObjectCodecInfoer); ok {
			// A compressing store knows how it just encoded the data
			// object; the manifest records codec and sizes so a restart
			// can see the compression story without fetching payloads.
			if info, known := ci.ObjectCodec(name); known {
				m.Codec = info.Codec
				m.RawBytes = info.RawBytes
				m.EncodedBytes = info.EncodedBytes
			}
		}
		if chi, ok := c.cc.Store.(storage.ObjectChunkInfoer); ok {
			// A dedup store knows the object's content-addressed chunk
			// set; the manifest (v2) records it, so a restart can walk
			// the whole chunk dependency graph from manifests alone.
			if info, known := chi.ObjectChunks(name); known {
				m.setChunks(info)
			}
		}
		if merr := c.cc.Store.Put(m.Name(), EncodeManifest(m)); merr != nil {
			c.fail(fmt.Errorf("storing manifest %s: %w", m.Name(), merr))
		} else {
			manifestStored = true
		}
	}
	// The store (and the manifest, which reads only block metadata) is
	// done with the payloads; the pooled buffers go back for the next
	// iteration's snapshots.
	b.ReleaseBuffers()
	c.mu.Lock()
	if err == nil {
		// Coverage and partial accounting describe *stored* objects; a
		// failed Put stored nothing, so the loss shows in Completeness.
		c.stats.ObjectsWritten++
		c.stats.ObjectBytes += int64(objLen)
		if manifestStored {
			c.stats.ManifestsWritten++
		}
		c.covered[b.Iteration] += len(covers)
		if partial {
			c.partials[b.Iteration] = true
			c.stats.PartialIterations = len(c.partials)
		}
	}
	// Completion tracking is liveness, not accuracy: the root is done
	// with this iteration either way, and waiters must not hang on a
	// store error (the error itself surfaces through Errors/Shutdown).
	c.noteRootStored(b.Iteration)
	c.mu.Unlock()
	c.iterDone.Broadcast()
	if err == nil {
		a.releaseAged(b.Iteration)
	}
	if err != nil {
		c.fail(fmt.Errorf("storing %s: %w", name, err))
	}
}

// releaseAged applies the retention window after this root stored
// iteration it: the root's object and manifest for iteration it-Retain
// drop their store reference, making them collectable by the store's
// next GC sweep. Only objects this root actually wrote are released
// (quota-dropped iterations stored nothing), and eviction/cancel paths
// never call this — so every object inside any tenant's window keeps
// its reference, and a sweep can never break a retained restore.
// written is goroutine-local to this aggregator's run().
func (a *aggregator) releaseAged(it int) {
	c := a.c
	ret := c.spec.Retain
	if ret <= 0 {
		return
	}
	rt, ok := c.cc.Store.(storage.Retainer)
	if !ok {
		return
	}
	a.written[it] = true
	old := it - ret
	if !a.written[old] {
		return
	}
	delete(a.written, old)
	released := 0
	oldName := c.objectName(a.node, old)
	if rt.Release(oldName) == nil {
		released++
	}
	if !c.cc.DisableManifests {
		if rt.Release(oldName+ManifestSuffix) == nil {
			released++
		}
	}
	if released > 0 {
		c.mu.Lock()
		c.stats.ObjectsReleased += released
		c.mu.Unlock()
	}
}
