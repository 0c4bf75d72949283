package cluster

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/shm"
	"repro/internal/storage"
)

// Hook is a cluster-wide end-of-iteration plugin: it runs at a tree
// root once that root's whole subtree has delivered an iteration, with
// the merged batch still in memory. The batch is normalized before the
// hook runs, so hooks observe the same (node, source, variable) order
// that EncodeBatch later stores, regardless of arrival order. Block
// payloads alias the origin nodes' shared-memory segments, which reuse
// them right after the iteration is stored — a hook that wants bytes
// past its own return must copy them.
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
	// alongside the data objects: one per data object, unless its
	// manifest Put failed.
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
	// produced on a dead node from its death iteration on, dropped by
	// the byte quota, orphaned with nowhere to drain, or reaching a live
	// root that had already stored their iteration — the only loss a
	// live root decides (Forest rule 4), and, since roots wait for a
	// dead node's pre-death iterations (rule 1), reachable only from
	// the end-of-run flush of a straggler.
	BlocksLost int
	// ReroutedEdges counts tree edges moved by failures, including
	// root promotions, in the epoch routing the iteration the node died
	// at.
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
	// RootContention counts, per (tenant-local) root node id, the grants
	// that had to queue behind another root — same-tenant or
	// cross-tenant — the interference the broker absorbed.
	RootContention map[int]int
	// TokensReclaimed counts tokens (held or queued) freed because
	// their holder was killed by the failure schedule or evicted.
	TokensReclaimed int
}

// add sums another tenant's scalar counters into s. It touches no map
// field: their keys are tenant-local node ids and iterations, so a
// key-wise sum across tenants would mix unrelated entries. Used by
// ServiceStats rollups.
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

	// mu guards the forest (failures re-route it and Reform appends
	// epochs mid-run), the stats and the exited flags. Each aggregator's
	// mailbox has its own lock (aggregator.mboxMu) so concurrent leaf
	// deliveries do not contend on one cluster-wide mutex; a routing
	// decision and the post it decides still happen in one c.mu hold, so
	// a re-route or re-formation stays atomic with respect to in-flight
	// deliveries. Lock order: c.mu before mboxMu, never the reverse.
	mu sync.Mutex
	// forest is the routing protocol: topology epochs, failure overlay,
	// coverage requirements, root windows and the completeness ledger.
	forest   *Forest
	stats    Stats
	partials map[int]bool // iterations stored below full live coverage
	exited   Cover        // nodes whose aggregator goroutine returned
	errs     []error
	iterDone *sync.Cond
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
	clients := cc.Platform.CoresPerNode - dedicatedPerNode
	if clients <= 0 {
		return nil, fmt.Errorf("cluster: %d cores/node leaves no simulation cores",
			cc.Platform.CoresPerNode)
	}

	c := &Cluster{
		cc:         cc,
		spec:       spec,
		tenant:     tenant,
		holderBase: tenantHolderBase(tenant),
		forest:     NewForest(cc.Platform.Nodes, cc.Fanout, cc.Roots),
		nodes:      make([]*core.Node, cc.Platform.Nodes),
		aggs:       make([]*aggregator, cc.Platform.Nodes),
		partials:   map[int]bool{},
	}
	c.iterDone = sync.NewCond(&c.mu)

	for i := range c.aggs {
		a := &aggregator{
			c:       c,
			node:    i,
			self:    CoverOf(i),
			written: map[int]bool{},
		}
		a.gather = NewGather(c.forest, i, a.merge)
		a.avail = sync.NewCond(&a.mboxMu)
		c.aggs[i] = a
	}
	for i := range c.nodes {
		nodeID := i
		opts := core.Options{
			NodeID: nodeID,
			Logger: cc.Logger,
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

// Tree returns a snapshot of the current aggregation topology — the
// latest epoch — including any failure re-routing applied so far.
func (c *Cluster) Tree() Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forest.Tree()
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// ClientsPerNode returns the simulation client count on each node —
// what a driver loops over when it writes through Client.
func (c *Cluster) ClientsPerNode() int {
	return c.cc.Platform.CoresPerNode - dedicatedPerNode
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
	s.IterationsCompleted = c.forest.Completed()
	s.Completeness = c.forest.Completeness()
	c.mu.Unlock()
	if c.cc.Broker != nil {
		bs := c.cc.Broker.Stats()
		lo, hi := c.holderBase, c.holderBase+len(c.nodes)
		for h, n := range bs.GrantsByHolder {
			if h >= lo && h < hi {
				s.TokenGrants += n
			}
		}
		for h, w := range bs.WaitByHolder {
			if h >= lo && h < hi {
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
	for !c.forest.Done(it) {
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
		c.postTo(i, aggMsg{eof: true})
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
// into the lost-blocks accounting — freeing their shared-memory
// blocks — and then shuts the nodes down. Safe to call at any point,
// including concurrently with client writes; it is how a Service
// enforces an eviction.
func (c *Cluster) Cancel() error {
	for i := range c.nodes {
		c.killNode(i, 0, 0) // at iteration 0: nothing it posted is awaited (rule 1)
	}
	return c.Shutdown()
}

// killNode executes one scheduled death at iteration atIter: atomically
// re-route the forest, then wake every aggregator — the dead node's
// drains what it holds, survivors re-ask the forest under their new
// coverage requirements. blocksDropped are the dead node's own blocks
// for the triggering iteration — the mid-iteration loss. Repeat calls
// (every later iteration of the dead node) only account further drops.
func (c *Cluster) killNode(d, atIter, blocksDropped int) {
	c.mu.Lock()
	c.stats.BlocksLost += blocksDropped
	edges, ok := c.forest.Fail(d, atIter)
	if !ok {
		c.mu.Unlock()
		return
	}
	c.stats.NodesFailed++
	c.stats.ReroutedEdges += len(edges)
	if c.cc.Broker != nil {
		// A dead root must not strand a write token for the rest of the
		// run: free what it holds, cancel what it queued for.
		// ReleaseHolder's return value is this holder's reclaim count;
		// the broker keeps no tally of its own.
		c.stats.TokensReclaimed += c.cc.Broker.ReleaseHolder(c.holderBase + d)
	}
	for i := range c.aggs {
		c.postTo(i, aggMsg{poke: true})
	}
	c.mu.Unlock()
	c.iterDone.Broadcast()
	c.cc.Logger.Printf("cluster: node %d failed, %d edges re-routed", d, len(edges))
}

// postTo delivers a message to node i's aggregator, dropping a poke to
// one that exited. No batch can reach an exited one: a node dies only
// before Shutdown's in-order eof reaches it, when its receivers — a live
// ancestor or a dead root's first live child — still run
// (TestForestExhaustive). Callers hold c.mu.
func (c *Cluster) postTo(i int, m aggMsg) {
	if !c.exited.Has(i) {
		c.aggs[i].post(m)
	}
}

// forwarder is the per-node plugin that takes a completed iteration's
// blocks from the node and hands them, still in shared memory, to the
// aggregation layer; each returns to its segment when its batch leaves
// the data path (FreeBlocks). It runs on the dedicated core and is the
// failure injection point: a node scheduled to die at iteration k drops
// everything from k on.
type forwarder struct{ agg *aggregator }

// Name implements core.Plugin.
func (f *forwarder) Name() string { return "cluster-forward" }

// OnEvent implements core.Plugin.
func (f *forwarder) OnEvent(ctx *core.PluginContext, ev core.Event) error {
	c := f.agg.c
	refs := ctx.Take(ev.Iteration)
	b := &Batch{Iteration: ev.Iteration, Blocks: make([]Block, 0, len(refs))}
	for _, ref := range refs {
		owner := ref.Data.(*shm.Block)
		b.Blocks = append(b.Blocks, Block{Node: ctx.NodeID, Source: ref.Key.Source,
			Variable: ref.Key.Variable, Data: owner.Bytes(), owner: owner})
	}
	if at, ok := c.spec.Failures.At(f.agg.node); ok && ev.Iteration >= at {
		c.killNode(f.agg.node, ev.Iteration, len(b.Blocks))
		b.FreeBlocks()
		return nil
	}
	f.agg.post(aggMsg{batch: b, covers: f.agg.self})
	return nil
}

// aggMsg is one message into an aggregator's mailbox: a batch tagged
// with the origin nodes it covers, the node's own end-of-stream marker
// (Shutdown, after the node drained), or a poke to ask the forest again
// — after a death, a re-formation or a sender's exit.
type aggMsg struct {
	batch  *Batch
	covers Cover // origin nodes whose data the batch carries; read-only
	eof    bool
	poke   bool
}

// aggregator is one node's position in the aggregation tree: its
// Gather merges the node's own iteration batches with its children's
// and puts each merged iteration to the forest's Route decision —
// forward it upward, store it as a root, or keep waiting. The coverage
// requirement Route checks shrinks when nodes die, which is what lets
// the forest re-route around failures without deadlocking.
type aggregator struct {
	c    *Cluster
	node int
	self Cover // {node}: what the node's own batches cover

	// mboxMu guards this aggregator's mailbox alone, so deliveries to
	// different nodes never contend with each other (c.mu used to guard
	// every mailbox and was the aggregation layer's hottest lock).
	// Acquired after c.mu when both are needed.
	mboxMu sync.Mutex
	avail  *sync.Cond // on mboxMu
	mbox   []aggMsg   // unbounded so posts never block
	poked  bool       // a poke is queued; pokes are idempotent, one is enough

	// Goroutine-local state (only touched by run()); the gather is
	// stepped under c.mu, where its routing decisions are made.
	gather  *Gather[*Batch]
	eof     bool         // the node drained: no more own batches
	blocks  int          // block count of the last routed batch, to pre-size the next
	written map[int]bool // iterations whose object actually landed (retention)
}

// merge is the gather's merge: the iteration's held batch absorbs in's
// blocks, growing once to the size of the last batch routed. The blocks
// move, shared memory and all: in is spent and must not be freed.
func (a *aggregator) merge(held, in *Batch) *Batch {
	held.Blocks = append(slices.Grow(held.Blocks, max(len(in.Blocks), a.blocks-len(held.Blocks))), in.Blocks...)
	return held
}

// post enqueues a message. Safe with or without c.mu held (routing
// callers hold it; the forwarder does not). A poke only asks for a
// re-check, so a second one behind a queued one is dropped: a tight
// Reform loop cannot grow a mailbox faster than run() drains it.
func (a *aggregator) post(m aggMsg) {
	a.mboxMu.Lock()
	if m.poke {
		if a.poked {
			a.mboxMu.Unlock()
			return
		}
		a.poked = true
	}
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
	if m.poke {
		a.poked = false
	}
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
		case m.eof:
			a.eof = true
		case m.batch != nil:
			a.gather.Deliver(m.batch.Iteration, m.batch, m.covers)
		}
		a.routePending(false)
		if a.finished() {
			break
		}
	}
	// Every producer is done: flush incomplete iterations upward rather
	// than losing them silently (partial data beats no data — the same
	// trade the §V.C skip policy makes).
	a.routePending(true)
	c.mu.Lock()
	// Wake every node that may be waiting on this one for an in-flight
	// iteration: a parent in any epoch — one from an older topology
	// included — or, from a dead node, its drain target.
	for _, to := range c.forest.Receivers(a.node).Nodes(nil) {
		c.postTo(to, aggMsg{poke: true})
	}
	c.exited.Add(a.node)
	c.mu.Unlock()
	c.wg.Done()
}

// finished reports whether nothing more can arrive here: the node has
// drained (Shutdown's eof), the mailbox is empty — a sender that exited
// may still have unprocessed deliveries queued, and they must be merged
// before the flush — and every sender has exited: live children, and
// dead nodes still draining into this one. A dead node has no senders
// and relays everything at once, so it waits only for its own eof.
func (a *aggregator) finished() bool {
	if !a.eof {
		return false
	}
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return a.mboxEmpty() && c.exited.Contains(c.forest.Senders(a.node))
}

// rootWrite is one Store decision, carried out once c.mu is released.
type rootWrite struct {
	batch  *Batch
	covers Cover
	window int
}

// routePending steps the gather — every held iteration put to the
// forest, ascending — and carries out what it decides: forward to the
// parent, drain a dead node's holdings, count a loss, or store at a
// root. flush skips the readiness check and marks root objects partial
// (the end-of-run flush). Each decision and the post it leads to share
// one c.mu hold; the stores run after the lock is dropped.
func (a *aggregator) routePending(flush bool) {
	if a.gather.Len() == 0 {
		return
	}
	c := a.c
	var writes []rootWrite
	c.mu.Lock()
	a.gather.Step(flush, func(_ int, d Decision, b *Batch, covers Cover) bool {
		a.blocks = len(b.Blocks)
		if d.Kind == Store {
			writes = append(writes, rootWrite{b, covers, d.Window})
		} else {
			c.carryOut(d, b, covers)
		}
		return false
	})
	c.mu.Unlock()
	for _, w := range writes {
		a.store(w.batch, w.covers, flush, w.window)
	}
}

// carryOut executes a Forward, Drain or Lose of a batch covering
// covers. Callers hold c.mu.
func (c *Cluster) carryOut(d Decision, b *Batch, covers Cover) {
	if d.Kind == Lose {
		c.stats.BlocksLost += len(b.Blocks)
		b.FreeBlocks()
		return
	}
	c.stats.BatchesForwarded++
	c.stats.BytesForwarded += int64(b.Bytes())
	c.postTo(d.To, aggMsg{batch: b, covers: covers})
}

// store writes a merged batch as this root's object for the iteration,
// through root window window. partial marks batches flushed without
// full live coverage.
func (a *aggregator) store(b *Batch, covers Cover, partial bool, window int) {
	c := a.c
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
		// One broker target per root window, in ordinal order: a promoted
		// root claims what the dead root claimed.
		grant := c.cc.Broker.Acquire(storage.TokenRequest{
			Holder:   c.holderBase + a.node,
			Tenant:   c.tenant,
			Priority: c.spec.Priority,
			Weight:   c.spec.Weight,
			Targets:  []int{window},
			Deadline: deadline,
			Bytes:    float64(b.Bytes()),
		})
		if grant.Denied {
			// Killed while queued for the token: the write never starts;
			// the forest now sees a dead node and drains the batch toward
			// the re-route target instead.
			c.mu.Lock()
			c.carryOut(c.forest.Flush(a.node, b.Iteration), b, covers)
			c.mu.Unlock()
			return
		}
		defer grant.Release()
	}

	// Root: normalize so hooks and the stored object agree on block
	// order, run the cluster-wide hooks on the merged subtree, then the
	// batch becomes one large sequential object on the backend. The
	// write is scatter-gather: only the small framing headers are newly
	// built, payload segments alias the nodes' shared memory, and the
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
			c.forest.RootDone(b.Iteration, 0)
		}
		c.mu.Unlock()
		if over {
			c.iterDone.Broadcast()
			b.FreeBlocks()
			return
		}
	}

	name := c.objectName(a.node, b.Iteration)
	err := storage.PutVec(c.cc.Store, name, segs)
	var manifestStored bool
	if err == nil {
		// The manifest rides along with the data: a small index object
		// Restore navigates by without touching any payload. A failed
		// manifest Put degrades the run to unreplayable, not broken —
		// the data object is already durable.
		m := newManifest(c.spec.JobName, a.node, name, b, covers.Nodes(nil), partial)
		if merr := c.cc.Store.Put(m.Name(), EncodeManifest(m)); merr != nil {
			c.fail(fmt.Errorf("storing manifest %s: %w", m.Name(), merr))
		} else {
			manifestStored = true
		}
	}
	// The store (and the manifest, which reads only block metadata) is
	// done with the payloads: the blocks go back to their segments for
	// the clients' next iterations.
	b.FreeBlocks()
	c.mu.Lock()
	storedNodes := 0
	if err == nil {
		// Coverage and partial accounting describe *stored* objects; a
		// failed Put stored nothing, so the loss shows in Completeness.
		c.stats.ObjectsWritten++
		c.stats.ObjectBytes += int64(objLen)
		if manifestStored {
			c.stats.ManifestsWritten++
		}
		storedNodes = covers.Len()
		if partial {
			c.partials[b.Iteration] = true
			c.stats.PartialIterations = len(c.partials)
		}
	}
	// Completion tracking is liveness, not accuracy: the root is done
	// with this iteration either way, and waiters must not hang on a
	// store error (the error itself surfaces through Errors/Shutdown).
	c.forest.RootDone(b.Iteration, storedNodes)
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
	if rt.Release(oldName+ManifestSuffix) == nil {
		released++
	}
	if released > 0 {
		c.mu.Lock()
		c.stats.ObjectsReleased += released
		c.mu.Unlock()
	}
}
