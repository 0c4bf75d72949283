// Package core implements the Damaris middleware (§III): on every SMP
// node, one or a few dedicated cores run a data-management service that
// the simulation cores talk to exclusively through node-local shared
// memory and a message queue.
//
// A Node owns the shared-memory Segment, the event Queue, the block
// Index, and the dedicated-core server goroutine. Each simulation core
// holds a Client, whose API mirrors the original middleware:
//
//	Write(variable, iteration, data)  copy data into shared memory
//	Alloc / Commit                    zero-copy variant
//	Signal(name, iteration)           trigger a plugin event
//	EndIteration(iteration)           mark this core's step complete
//
// When every client of the node has ended an iteration, the server fires
// the configured end-of-iteration plugins (I/O, compression, analysis,
// visualization), then frees the iteration's blocks — all but those a
// plugin took (PluginContext.Take), which that plugin frees.
//
// When the segment is full, Write fails with ErrSkipped and the whole
// iteration is dropped for that client — the paper's §V.C policy of
// "accepting potential loss of data rather than blocking the simulation".
package core

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/shm"
)

// ErrSkipped reports that data was dropped because the shared-memory
// segment was full.
var ErrSkipped = errors.New("damaris: iteration skipped (shared memory full)")

// EventKind discriminates queue messages.
type EventKind int

// Queue event kinds.
const (
	EventWrite EventKind = iota
	EventSignal
	EventEndIteration
	EventStop
)

// Event is one message on the node's queue.
type Event struct {
	Kind      EventKind
	Source    int
	Iteration int
	// Name is the signal name (EventSignal) or variable (EventWrite).
	Name string
}

// Plugin is a user-provided data-management action run by the dedicated
// core (§III.A's plugin system).
type Plugin interface {
	// Name identifies the plugin in logs and errors.
	Name() string
	// OnEvent is called on the dedicated core. For end_iteration events
	// the iteration's blocks are in ctx.Index until OnEvent returns,
	// unless it takes them (PluginContext.Take).
	OnEvent(ctx *PluginContext, ev Event) error
}

// PluginFunc adapts a function to the Plugin interface.
type PluginFunc struct {
	PluginName string
	Fn         func(ctx *PluginContext, ev Event) error
}

// Name implements Plugin.
func (p PluginFunc) Name() string { return p.PluginName }

// OnEvent implements Plugin.
func (p PluginFunc) OnEvent(ctx *PluginContext, ev Event) error { return p.Fn(ctx, ev) }

// PluginFactory builds a plugin from its XML <plugin> attributes.
type PluginFactory func(cfg map[string]string) (Plugin, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]PluginFactory{}
)

// RegisterPlugin adds a factory to the global plugin registry; XML
// configurations refer to it by name.
func RegisterPlugin(name string, f PluginFactory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

func lookupPlugin(name string) (PluginFactory, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// PluginContext is what a plugin sees of the node.
type PluginContext struct {
	Config *meta.Config
	Index  *meta.Index
	NodeID int
	Logger *log.Logger
}

// BlockBytes returns the shared-memory bytes of an indexed block.
// Plugins work directly on this memory — the zero-copy path the design
// is built around.
func (ctx *PluginContext) BlockBytes(ref meta.BlockRef) []byte {
	return ref.Data.(*shm.Block).Bytes()
}

// Take hands iteration it's blocks to the plugin, unsorted: plugins
// after this one no longer see them, and the node no longer frees them.
// Each ref's Data is a *shm.Block that holds its segment space until
// the plugin calls its Free — exactly once, on every path.
func (ctx *PluginContext) Take(it int) []meta.BlockRef {
	return ctx.Index.RemoveIteration(it)
}

// Stats aggregates what the node measured.
type Stats struct {
	// BlocksWritten and BytesWritten count committed client writes.
	BlocksWritten int64
	BytesWritten  int64
	// IterationsCompleted counts iterations fully processed by the
	// dedicated core (all clients ended, plugins ran, blocks freed).
	IterationsCompleted int64
	// SkippedWrites counts client writes dropped because the segment was
	// full (the paper's skip-rather-than-block policy).
	SkippedWrites int64
	// ServerBusy is the dedicated core's cumulative event-processing time.
	ServerBusy time.Duration
	// PluginErrors counts plugin failures (the errors themselves are in
	// Errors).
	PluginErrors int64
}

// counters is the node's live tally behind Stats. The fields written on
// the client write path are atomics so concurrent writers never
// serialize on the node mutex just to bump a counter; the mutex-guarded
// state (errs, endCount, skipped) keeps its own locks.
type counters struct {
	blocksWritten       atomic.Int64
	bytesWritten        atomic.Int64
	iterationsCompleted atomic.Int64 // updated under Node.mu for WaitIteration's cond
	skippedWrites       atomic.Int64
	serverBusy          atomic.Int64 // nanoseconds
	pluginErrors        atomic.Int64
}

// Options tune NewNode beyond the XML configuration.
type Options struct {
	// NodeID distinguishes nodes in output file names.
	NodeID int
	// Logger defaults to a silent logger.
	Logger *log.Logger
	// ExtraPlugins are instantiated plugins bound to events, in addition
	// to those named in the XML configuration.
	ExtraPlugins map[string][]Plugin
}

// Node is one SMP node's Damaris instance.
type Node struct {
	cfg     *meta.Config
	seg     *shm.Segment
	queue   *shm.Queue[Event]
	index   *meta.Index
	clients int
	opts    Options

	plugins map[string][]Plugin // event name → plugins

	stats counters

	mu         sync.Mutex
	errs       []error
	endCount   map[int]int
	iterDone   *sync.Cond
	serverDone chan struct{}

	// skipMu guards skipped separately from mu: the not-skipped check is
	// on every client write's fast path and only needs a read lock.
	skipMu  sync.RWMutex
	skipped map[skipKey]bool
}

type skipKey struct{ source, iteration int }

// NewNode builds the node runtime: shared-memory segment, queue, index,
// plugins, and the dedicated-core server. clients is the number of
// simulation cores that will attach.
func NewNode(cfg *meta.Config, clients int, opts Options) (*Node, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("damaris: need at least one client, got %d", clients)
	}
	seg, err := shm.NewSegment(cfg.Architecture.BufferSize)
	if err != nil {
		return nil, err
	}
	if opts.Logger == nil {
		opts.Logger = log.New(discard{}, "", 0)
	}
	n := &Node{
		cfg:        cfg,
		seg:        seg,
		queue:      shm.NewQueue[Event](cfg.Architecture.QueueSize),
		index:      meta.NewIndex(),
		clients:    clients,
		opts:       opts,
		plugins:    map[string][]Plugin{},
		endCount:   map[int]int{},
		skipped:    map[skipKey]bool{},
		serverDone: make(chan struct{}),
	}
	n.iterDone = sync.NewCond(&n.mu)
	for _, spec := range cfg.Plugins {
		factory, ok := lookupPlugin(spec.Name)
		if !ok {
			return nil, fmt.Errorf("damaris: plugin %q not registered", spec.Name)
		}
		p, err := factory(spec.Config)
		if err != nil {
			return nil, fmt.Errorf("damaris: building plugin %q: %w", spec.Name, err)
		}
		n.plugins[spec.Event] = append(n.plugins[spec.Event], p)
	}
	for event, ps := range opts.ExtraPlugins {
		n.plugins[event] = append(n.plugins[event], ps...)
	}
	go n.serve()
	return n, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Config returns the node's parsed configuration.
func (n *Node) Config() *meta.Config { return n.cfg }

// Index exposes the block index (read-mostly; plugins use it).
func (n *Node) Index() *meta.Index { return n.index }

// Segment exposes the shared-memory segment (diagnostics).
func (n *Node) Segment() *shm.Segment { return n.seg }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	return Stats{
		BlocksWritten:       n.stats.blocksWritten.Load(),
		BytesWritten:        n.stats.bytesWritten.Load(),
		IterationsCompleted: n.stats.iterationsCompleted.Load(),
		SkippedWrites:       n.stats.skippedWrites.Load(),
		ServerBusy:          time.Duration(n.stats.serverBusy.Load()),
		PluginErrors:        n.stats.pluginErrors.Load(),
	}
}

// Errors returns the plugin errors collected so far.
func (n *Node) Errors() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]error(nil), n.errs...)
}

// Client returns the handle for one simulation core. source must be
// unique per core on this node.
func (n *Node) Client(source int) *Client {
	return &Client{node: n, source: source}
}

// WaitIteration blocks until the server has completed the given
// iteration (all clients ended it and plugins ran).
func (n *Node) WaitIteration(it int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.stats.iterationsCompleted.Load() <= int64(it) {
		n.iterDone.Wait()
	}
}

// Shutdown stops the server after all queued events are processed,
// frees the blocks of iterations that never completed, and returns the
// first plugin error, if any.
func (n *Node) Shutdown() error {
	n.queue.Send(Event{Kind: EventStop})
	<-n.serverDone
	n.seg.Close()
	for _, ref := range n.index.RemoveAll() {
		ref.Data.(*shm.Block).Free()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.errs) > 0 {
		return n.errs[0]
	}
	return nil
}

// serve is the dedicated-core loop.
func (n *Node) serve() {
	defer close(n.serverDone)
	for {
		ev, ok := n.queue.Recv()
		if !ok {
			return
		}
		if ev.Kind == EventWrite {
			// Blocks are indexed by the client; the event exists so the
			// server can adapt (prefetch, schedule) — nothing to do, or
			// to time, in the base middleware.
			continue
		}
		start := time.Now()
		switch ev.Kind {
		case EventStop:
			return
		case EventSignal:
			n.firePlugins(ev.Name, ev)
		case EventEndIteration:
			n.mu.Lock()
			n.endCount[ev.Iteration]++
			complete := n.endCount[ev.Iteration] == n.clients
			if complete {
				delete(n.endCount, ev.Iteration)
			}
			n.mu.Unlock()
			if complete {
				n.firePlugins("end_iteration", ev)
				n.collectIteration(ev.Iteration)
			}
		}
		n.stats.serverBusy.Add(int64(time.Since(start)))
	}
}

func (n *Node) firePlugins(event string, ev Event) {
	ctx := &PluginContext{
		Config: n.cfg,
		Index:  n.index,
		NodeID: n.opts.NodeID,
		Logger: n.opts.Logger,
	}
	for _, p := range n.plugins[event] {
		// A failing plugin must not take down the service: record and
		// continue (plugin isolation).
		if err := safeCall(p, ctx, ev); err != nil {
			n.mu.Lock()
			n.errs = append(n.errs, fmt.Errorf("plugin %q on %q: %w", p.Name(), event, err))
			n.mu.Unlock()
			n.stats.pluginErrors.Add(1)
			n.opts.Logger.Printf("plugin %q failed: %v", p.Name(), err)
		}
	}
}

func safeCall(p Plugin, ctx *PluginContext, ev Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.OnEvent(ctx, ev)
}

// collectIteration frees the iteration's blocks that no plugin took,
// after the plugins ran (the garbage-collection step).
func (n *Node) collectIteration(it int) {
	for _, ref := range n.index.RemoveIteration(it) {
		ref.Data.(*shm.Block).Free()
	}
	// The increment happens under mu so WaitIteration cannot check the
	// counter and then miss the broadcast.
	n.mu.Lock()
	n.stats.iterationsCompleted.Add(1)
	n.iterDone.Broadcast()
	n.mu.Unlock()
}

// Client is the per-simulation-core API.
type Client struct {
	node   *Node
	source int
}

// Source returns the client's identifier.
func (c *Client) Source() int { return c.source }

// Write copies data for one variable of one iteration into shared memory
// and notifies the dedicated core. It returns ErrSkipped (and drops the
// whole iteration for this client) when the segment is full.
func (c *Client) Write(variable string, iteration int, data []byte) error {
	n := c.node
	v, ok := n.cfg.Variables[variable]
	if !ok {
		return fmt.Errorf("damaris: unknown variable %q", variable)
	}
	if want := v.Layout.SizeBytes(); len(data) != want {
		return fmt.Errorf("damaris: variable %q expects %d bytes, got %d", variable, want, len(data))
	}
	block, err := c.reserve(iteration, len(data))
	if err != nil {
		return err
	}
	copy(block.Bytes(), data)
	c.commit(variable, iteration, block)
	return nil
}

// Alloc reserves the block for one variable directly in shared memory so
// the simulation can compute into it (the zero-copy path). Call the
// returned commit function when the data is complete.
func (c *Client) Alloc(variable string, iteration int) ([]byte, func() error, error) {
	v, ok := c.node.cfg.Variables[variable]
	if !ok {
		return nil, nil, fmt.Errorf("damaris: unknown variable %q", variable)
	}
	block, err := c.reserve(iteration, v.Layout.SizeBytes())
	if err != nil {
		return nil, nil, err
	}
	return block.Bytes(), func() error { c.commit(variable, iteration, block); return nil }, nil
}

// reserve takes size bytes of shared memory for one of the client's
// blocks of iteration, unless the iteration is already skipped for it.
func (c *Client) reserve(iteration, size int) (*shm.Block, error) {
	n := c.node
	key := skipKey{c.source, iteration}
	n.skipMu.RLock()
	skip := n.skipped[key]
	n.skipMu.RUnlock()
	if skip {
		return nil, ErrSkipped
	}

	block, err := n.seg.Alloc(size)
	if errors.Is(err, shm.ErrNoSpace) {
		// The paper's policy: drop the iteration rather than block the
		// simulation.
		n.skipMu.Lock()
		n.skipped[key] = true
		n.skipMu.Unlock()
		n.stats.skippedWrites.Add(1)
		return nil, ErrSkipped
	}
	return block, err
}

// commit indexes a filled block and notifies the dedicated core.
func (c *Client) commit(variable string, iteration int, block *shm.Block) {
	n := c.node
	old, replaced := n.index.Put(meta.BlockRef{
		Key:  meta.BlockKey{Variable: variable, Source: c.source, Iteration: iteration},
		Size: block.Len(),
		Data: block,
	})
	if replaced {
		old.Data.(*shm.Block).Free()
	}
	n.stats.blocksWritten.Add(1)
	n.stats.bytesWritten.Add(int64(block.Len()))
	n.queue.Send(Event{Kind: EventWrite, Source: c.source, Iteration: iteration, Name: variable})
}

// Signal sends a named event to the dedicated core, triggering the
// plugins bound to that event name.
func (c *Client) Signal(name string, iteration int) {
	c.node.queue.Send(Event{Kind: EventSignal, Source: c.source, Iteration: iteration, Name: name})
}

// EndIteration marks this client's step complete. When every client of
// the node has ended the iteration, the dedicated core runs the
// end-of-iteration plugins and frees the iteration's blocks.
func (c *Client) EndIteration(iteration int) {
	c.node.queue.Send(Event{Kind: EventEndIteration, Source: c.source, Iteration: iteration})
}
