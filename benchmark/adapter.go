package main

// adapter.go is the only file of the benchmark that imports the repo's
// packages. Every function the benchmark calls in the program under
// test is named here, so this file is the surface later refactors must
// keep (or change here, in one place).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/iostrat"
	"repro/internal/meta"
	"repro/internal/rng"
	"repro/internal/sdf"
	"repro/internal/shm"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// randStream is the repo's deterministic PCG stream; all benchmark
// inputs are drawn from streams keyed by the seed argument.
type randStream = rng.Stream

// newRand returns the stream named name under seed.
func newRand(seed uint64, name string) *randStream { return rng.New(seed, 0).Named(name) }

// ---------------------------------------------------------------------
// Storage stacks and their timing wrappers.

// stack is one round's storage: the base store (SDF directory or
// memory), the reduce layer on top of it if any, and — in a traced
// round — timing wrappers outside the whole stack and directly above
// the base, so a reduce layer's self time is outer minus inner.
type stack struct {
	kind   storeKind
	dir    string
	base   storage.Backend      // storage.NewSDF or storage.NewMemory
	top    storage.Backend      // top of the unwrapped stack (accounting)
	outer  storage.ObjectStore  // what the service writes to
	reader storage.ObjectReader // what Restore reads from
}

// storeTargets and storeBandwidth parameterize the stores' DES cost
// face, which the runtime path never charges.
const (
	storeTargets   = 8
	storeBandwidth = 1e9
)

// newStack builds the storage stack of kind under dir. tr is nil for an
// untraced round, which gets the bare stack with no wrapper at all.
func newStack(kind storeKind, dir string, tr *roundTrace) (*stack, error) {
	st := &stack{kind: kind, dir: dir}
	if kind == storeMemory {
		st.base = storage.NewMemory(nil, storeTargets, storeBandwidth)
	} else {
		sdfStore, err := storage.NewSDF(nil, storeTargets, storeBandwidth, dir)
		if err != nil {
			return nil, err
		}
		st.base = sdfStore
	}
	inner := st.base
	if tr != nil {
		inner = &timedBase{Backend: st.base, rec: tr.rec}
	}
	st.top = inner
	switch kind {
	case storeCodec:
		st.top = storage.NewCompressing(inner, storage.CompressionOptions{Codec: storage.AdaptiveCodec})
	case storeDedup:
		st.top = chunk.New(inner, chunk.Options{})
	}
	st.outer, st.reader = st.top, st.top
	if tr != nil {
		ts := &timedStore{store: st.top, tr: tr}
		ts.codec, _ = st.top.(storage.ObjectCodecInfoer)
		ts.chunks, _ = st.top.(storage.ObjectChunkInfoer)
		st.outer = ts
		st.reader = &timedReader{reader: st.top, rec: tr.rec}
	}
	return st, nil
}

// storedBytes is what the round left on storage: the directory's size
// for an SDF stack, the object sizes for memory.
func (st *stack) storedBytes() (int64, error) {
	if st.kind == storeMemory {
		return st.base.Accounting().ObjectBytes, nil
	}
	var total int64
	err := filepath.WalkDir(st.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// reduceCounts are the reduce layers' own exact counters.
type reduceCounts struct {
	chunksStored, chunksDeduped int64
	rawBytes, encodedBytes      int64 // compression pipeline, payload before/after
}

func (st *stack) reduceCounts() reduceCounts {
	acc := st.top.Accounting()
	return reduceCounts{
		chunksStored:  int64(acc.ChunksStored),
		chunksDeduped: int64(acc.ChunksDeduped),
		rawBytes:      acc.ObjectRawBytes,
		encodedBytes:  acc.ObjectEncodedBytes,
	}
}

// timedStore is the wrapper outside the whole stack. It needs only the
// narrow write face; the two info faces are forwarded because roots
// sniff them to fill manifests, and hiding them would change the work
// the program does.
type timedStore struct {
	store  storage.ObjectStore
	codec  storage.ObjectCodecInfoer
	chunks storage.ObjectChunkInfoer
	tr     *roundTrace
}

func (s *timedStore) Put(name string, data []byte) error {
	idx := s.tr.beginPut(name)
	err := s.store.Put(name, data)
	s.tr.rec.end(idx, int64(len(data)))
	return err
}

func (s *timedStore) PutVec(name string, segs [][]byte) error {
	idx := s.tr.beginPut(name)
	err := storage.PutVec(s.store, name, segs)
	s.tr.rec.end(idx, int64(storage.SegsLen(segs)))
	return err
}

func (s *timedStore) ObjectCodec(name string) (storage.CodecInfo, bool) {
	if s.codec == nil {
		return storage.CodecInfo{}, false
	}
	return s.codec.ObjectCodec(name)
}

func (s *timedStore) ObjectChunks(name string) (storage.ChunkInfo, bool) {
	if s.chunks == nil {
		return storage.ChunkInfo{}, false
	}
	return s.chunks.ObjectChunks(name)
}

// timedBase is the wrapper directly above the base store. The reduce
// layers are built over a full storage.Backend, so it embeds one and
// times only the object face.
type timedBase struct {
	storage.Backend
	rec *recorder
}

func (b *timedBase) Put(name string, data []byte) error {
	t0 := b.rec.now()
	err := b.Backend.Put(name, data)
	b.rec.leaf(spInnerPut, t0, b.rec.now(), int64(len(data)))
	return err
}

func (b *timedBase) PutVec(name string, segs [][]byte) error {
	t0 := b.rec.now()
	err := storage.PutVec(b.Backend, name, segs)
	b.rec.leaf(spInnerPut, t0, b.rec.now(), int64(storage.SegsLen(segs)))
	return err
}

func (b *timedBase) Get(name string) ([]byte, error) {
	t0 := b.rec.now()
	data, err := b.Backend.Get(name)
	b.rec.leaf(spInnerGet, t0, b.rec.now(), int64(len(data)))
	return data, err
}

func (b *timedBase) List(prefix string) ([]string, error) {
	t0 := b.rec.now()
	names, err := b.Backend.List(prefix)
	b.rec.leaf(spInnerList, t0, b.rec.now(), int64(len(names)))
	return names, err
}

// timedReader is the wrapper under cluster.Restore.
type timedReader struct {
	reader storage.ObjectReader
	rec    *recorder
}

func (r *timedReader) Get(name string) ([]byte, error) {
	idx := r.rec.begin(spGet, -1, -1)
	data, err := r.reader.Get(name)
	r.rec.end(idx, int64(len(data)))
	return data, err
}

func (r *timedReader) List(prefix string) ([]string, error) {
	idx := r.rec.begin(spList, -1, -1)
	names, err := r.reader.List(prefix)
	r.rec.end(idx, int64(len(names)))
	return names, err
}

// timedBroker times Acquire on a shared broker. The cluster passes the
// iteration as the request's deadline base, which labels the span.
type timedBroker struct {
	storage.TokenBroker
	rec *recorder
}

func (b *timedBroker) Acquire(req storage.TokenRequest) storage.TokenGrant {
	t0 := b.rec.now()
	g := b.TokenBroker.Acquire(req)
	b.rec.add(spAcquire, req.Tenant, int(req.Deadline), t0, b.rec.now(), int64(req.Bytes))
	return g
}

// ---------------------------------------------------------------------
// The runtime system: one cluster.Service, its tenants and clients.

// brokerTargets is the shared broker's target space (and shard count).
const brokerTargets = 8

// system is one round's live program: a cluster.Service over a fresh
// storage stack with every tenant admitted and running.
type system struct {
	spec    spec
	svc     *cluster.Service
	stack   *stack
	tenants []*tenantHandle
	broker  storage.TokenBroker

	stream   *storage.Stream
	subDone  chan struct{}
	received atomic.Int64
}

// tenantHandle is one admitted tenant: its cluster, its clients
// (indexed node*clientsPerNode+client) and its tree layout.
type tenantHandle struct {
	id      int
	tenant  *cluster.Tenant
	cluster *cluster.Cluster
	clients []*core.Client
	tree    cluster.Tree
}

// metaFor describes one tenant's variables and node architecture.
func metaFor(s spec, tenant int) (*meta.Config, error) {
	aligned := (s.blockBytes + 63) &^ 63 // the segment's allocation granularity
	var b strings.Builder
	fmt.Fprintf(&b, `<simulation name=%q><architecture><dedicated cores="1"/><buffer size="%d"/></architecture><data>`,
		jobName(tenant), shmIterations*s.clients*s.vars*aligned)
	fmt.Fprintf(&b, `<layout name="block" type="uint8" dimensions="%d"/>`, s.blockBytes)
	for v := 0; v < s.vars; v++ {
		fmt.Fprintf(&b, `<variable name=%q layout="block"/>`, varName(tenant, v))
	}
	b.WriteString(`</data></simulation>`)
	return meta.ParseString(b.String())
}

// newSystem builds the round's storage stack and service and submits
// every tenant through the front door: NewService → Submit(RunSpec) →
// Tenant.Cluster().
func newSystem(s spec, dir string, tr *roundTrace) (*system, error) {
	st, err := newStack(s.store, dir, tr)
	if err != nil {
		return nil, err
	}
	sys := &system{spec: s, stack: st}
	cc := cluster.ClusterConfig{
		Platform: topology.Platform{Name: "bench", Nodes: s.tenants * s.nodes, CoresPerNode: s.clients + 1},
		Fanout:   treeFanout,
		Roots:    treeRoots,
		Store:    st.outer,
	}
	var streamHook cluster.Hook
	if s.shared {
		sys.broker = storage.NewShardedBroker(storage.BrokerOptions{
			Policy: storage.PolicyPerTarget, Targets: brokerTargets}, brokerTargets)
		if tr != nil {
			sys.broker = &timedBroker{TokenBroker: sys.broker, rec: tr.rec}
		}
		cc.Broker = sys.broker
		sys.stream = storage.NewStream()
		streamHook = cluster.NewStreamingHook(sys.stream)
		sys.subscribe(tr)
	}
	if sys.svc, err = cluster.NewService(cc, cluster.ServiceOptions{}); err != nil {
		return nil, err
	}
	for t := 0; t < s.tenants; t++ {
		cfg, err := metaFor(s, t)
		if err != nil {
			return nil, err
		}
		h := &tenantHandle{id: t}
		run := cluster.RunSpec{Meta: cfg, JobName: jobName(t), Quota: cluster.Quota{Nodes: s.nodes}}
		if streamHook != nil {
			run.Hooks = append(run.Hooks, streamHook)
		}
		if tr != nil {
			run.Hooks = h.tracedHooks(run.Hooks, tr, sys.stream)
		}
		if h.tenant, err = sys.svc.Submit(run); err != nil {
			return nil, err
		}
		if h.cluster = h.tenant.Cluster(); h.cluster == nil {
			return nil, fmt.Errorf("tenant %d not admitted: state %s", t, h.tenant.State())
		}
		h.tree = h.cluster.Tree()
		for n := 0; n < h.cluster.Nodes(); n++ {
			for c := 0; c < h.cluster.ClientsPerNode(); c++ {
				h.clients = append(h.clients, h.cluster.Client(n, c))
			}
		}
		sys.tenants = append(sys.tenants, h)
	}
	return sys, nil
}

// subscribe attaches the one drop-oldest subscriber and the goroutine
// that drains it until the stream closes.
func (sys *system) subscribe(tr *roundTrace) {
	sub := sys.stream.Subscribe(storage.SubOptions{Policy: storage.DropOldest})
	sys.subDone = make(chan struct{})
	go func() {
		defer close(sys.subDone)
		for {
			msg, err := sub.Recv()
			if err != nil {
				return
			}
			sys.received.Add(1)
			if tr != nil {
				tr.noteDelivered(msg.Seq)
			}
		}
	}()
}

// tracedHooks brackets a tenant's hooks with an entry and an exit
// marker, so the hook span covers exactly what runs between them.
func (h *tenantHandle) tracedHooks(hooks []cluster.Hook, tr *roundTrace, stream *storage.Stream) []cluster.Hook {
	id := func(it int, b *cluster.Batch) (objectID, bool) {
		if len(b.Blocks) == 0 {
			return objectID{}, false
		}
		return objectID{tenant: h.id, root: h.tree.RootOf(b.Blocks[0].Node), iter: it}, true
	}
	enter := cluster.HookFunc{HookName: "bench-enter", Fn: func(it int, b *cluster.Batch) error {
		if k, ok := id(it, b); ok {
			tr.hookEnter(k)
		}
		return nil
	}}
	exit := cluster.HookFunc{HookName: "bench-exit", Fn: func(it int, b *cluster.Batch) error {
		if k, ok := id(it, b); ok {
			entered := tr.hookExit(k, int64(b.Bytes()))
			if stream != nil {
				// The message this root just published is (within one
				// concurrent publisher) the stream's latest.
				tr.notePublished(stream.Published(), entered)
			}
		}
		return nil
	}}
	return append(append([]cluster.Hook{enter}, hooks...), exit)
}

// subtreeOf returns the ordinal of the tree a tenant's node belongs to.
func (sys *system) subtreeOf(tenant, node int) int {
	return sys.tenants[tenant].tree.SubtreeIndex(node)
}

// write is Client.Write for client ci of the tenant.
func (h *tenantHandle) write(ci int, variable string, it int, data []byte) error {
	return h.clients[ci].Write(variable, it, data)
}

// endIteration is Client.EndIteration for client ci of the tenant.
func (h *tenantHandle) endIteration(ci, it int) { h.clients[ci].EndIteration(it) }

// waitIteration blocks until every root has stored iteration it.
func (h *tenantHandle) waitIteration(it int) { h.cluster.WaitIteration(it) }

// finish ends the tenant through the service (Tenant.Finish).
func (h *tenantHandle) finish() error { return h.tenant.Finish() }

// isSkipped reports the paper's skip policy: the segment was full and
// the write was dropped rather than blocking the simulation.
func isSkipped(err error) bool { return errors.Is(err, core.ErrSkipped) }

// tenantCounts is what the program itself counted for one tenant.
type tenantCounts struct {
	batchesForwarded, bytesForwarded int64
	objectsWritten                   int64
	blocksLost                       int64
	iterationsCompleted              int64
	partialIterations                int64
	serverBusy                       time.Duration
	errs                             []error
}

// counts snapshots the tenant's Stats() and Errors() and its nodes'.
func (h *tenantHandle) counts() tenantCounts {
	st := h.tenant.Stats()
	out := tenantCounts{
		batchesForwarded:    int64(st.BatchesForwarded),
		bytesForwarded:      st.BytesForwarded,
		objectsWritten:      int64(st.ObjectsWritten),
		blocksLost:          int64(st.BlocksLost),
		iterationsCompleted: int64(st.IterationsCompleted),
		partialIterations:   int64(st.PartialIterations),
		errs:                h.cluster.Errors(),
	}
	for n := 0; n < h.cluster.Nodes(); n++ {
		node := h.cluster.Node(n)
		out.serverBusy += node.Stats().ServerBusy
		out.errs = append(out.errs, node.Errors()...)
	}
	return out
}

// close ends whatever of the system is still running: the stream (and
// its subscriber goroutine) and the service.
func (sys *system) close() error {
	if sys.stream != nil {
		sys.stream.Close()
		<-sys.subDone
	}
	return sys.svc.Close()
}

// streamCounts returns messages published and received so far. Call it
// after close for final numbers.
func (sys *system) streamCounts() (published, received int64) {
	if sys.stream == nil {
		return 0, 0
	}
	return int64(sys.stream.Published()), sys.received.Load()
}

// brokerGrants returns the shared broker's total grants.
func (sys *system) brokerGrants() int64 {
	if sys.broker == nil {
		return 0
	}
	return int64(sys.broker.Stats().Grants)
}

// restoredBlock is one block read back from the store.
type restoredBlock struct {
	iter, node, source int
	variable           string
	data               []byte
}

// restoreJob runs cluster.Restore for one tenant's job and hands every
// restored block to visit. It returns the restore's wall time (visiting
// excluded) and its non-fatal problems.
func restoreJob(reader storage.ObjectReader, job string, rec *recorder, tenant int,
	visit func(restoredBlock)) (time.Duration, []error, error) {
	idx := int32(-1)
	if rec != nil {
		idx = rec.begin(spRestore, tenant, -1)
	}
	t0 := time.Now()
	r, err := cluster.Restore(reader, job)
	wall := time.Since(t0)
	if rec != nil {
		rec.end(idx, 0)
	}
	if err != nil {
		return wall, nil, err
	}
	for _, it := range r.IterationNumbers() {
		for _, b := range r.Iterations[it].Blocks {
			visit(restoredBlock{iter: it, node: b.Node, source: b.Source, variable: b.Variable, data: b.Data})
		}
	}
	return wall, r.Problems, nil
}

// ---------------------------------------------------------------------
// The DES face.

// desStrategy names one of the DES runs of the des-kraken workload.
type desStrategy string

const (
	desDamaris    desStrategy = "damaris"
	desFPP        desStrategy = "fpp"
	desCollective desStrategy = "collective"
	desTree       desStrategy = "tree"    // Damaris through the aggregation tree
	desRestart    desStrategy = "restart" // restart read of the tree-mode checkpoint
)

// desWriteStrategies are the four strategy runs, in the order their
// application run times must rank (tree mode equals plain Damaris).
var desWriteStrategies = []desStrategy{desDamaris, desFPP, desCollective, desTree}

// desOutcome is one DES run's deterministic result.
type desOutcome struct {
	totalTime   float64 // simulated application run time (restart: total restart time)
	userBytes   float64 // simulated bytes the application handed over (restart: read back)
	storedBytes float64 // simulated bytes that reached the file system
	coreIters   int64   // simulated core-iterations
	blocks      int64   // simulated variable writes
}

// desConfig is the shared configuration of the des-kraken runs: the
// Kraken preset at the given core count under the CM1 workload.
func desConfig(s spec, seed uint64, strategy desStrategy) iostrat.Config {
	plat := topology.Kraken(s.desCores / 12)
	cfg := iostrat.Config{Platform: plat, Workload: iostrat.CM1Workload(s.desIters), Seed: seed}
	if strategy == desTree || strategy == desRestart {
		cfg.Fanout = 4
		cfg.Scheduling = iostrat.SchedClusterToken
		cfg.Codec = storage.AdaptiveCodec
		cfg.Dedup = true
		cfg.DedupNewFraction = 0.25
	}
	return cfg
}

// desRun executes one DES run.
func desRun(s spec, seed uint64, strategy desStrategy) (desOutcome, error) {
	cfg := desConfig(s, seed, strategy)
	if strategy == desRestart {
		res, err := iostrat.RestartRead(cfg)
		return desOutcome{totalTime: res.TotalTime, userBytes: res.BytesRead, storedBytes: res.BytesRead}, err
	}
	approach := iostrat.Damaris
	switch strategy {
	case desFPP:
		approach = iostrat.FilePerProcess
	case desCollective:
		approach = iostrat.Collective
	}
	res, err := iostrat.Run(approach, cfg)
	if err != nil {
		return desOutcome{}, err
	}
	cores := int64(cfg.Platform.Cores())
	iters := int64(cfg.Workload.Iterations)
	// Every strategy is charged for the machine's full core count, the
	// way the paper compares them: Damaris gives one core per node up.
	return desOutcome{
		totalTime:   res.TotalTime,
		userBytes:   res.BytesWritten + res.BytesSaved + res.DedupBytesSaved,
		storedBytes: res.BytesWritten,
		coreIters:   cores * iters,
		blocks:      cores * iters * int64(cfg.Workload.VarsPerCore),
	}, nil
}

// ---------------------------------------------------------------------
// Single-goroutine kernels: each layer's public functions called
// directly on the workload's own payloads.

// kernel is one steady-state micro-measurement. prepare builds the
// operation (set-up is not timed); each call of op does one unit of
// work and returns the payload bytes it processed (0 for operations
// measured per call).
type kernel struct {
	name    string
	unit    string // "ns", "us", "ms", "s" per operation, or "MB/s"
	batch   int    // operations one call of op performs (0 means 1)
	applies func(s spec) bool
	prepare func(s spec, p *payloads, seed uint64, dir string) (op func() (int, error), cleanup func(), err error)
}

func runtimeOnly(s spec) bool { return !s.des }
func desOnly(s spec) bool     { return s.des }
func always(spec) bool        { return true }
func sdfOnly(s spec) bool     { return !s.des && s.store != storeMemory }
func sharedOnly(s spec) bool  { return s.shared }

// rootBatch builds the batch one root stores per iteration: tenant 0's
// first subtree of iteration 0.
func rootBatch(s spec, p *payloads) *cluster.Batch {
	b := &cluster.Batch{Iteration: 0}
	tree := cluster.NewTree(s.nodes, treeFanout, treeRoots)
	for n := 0; n < s.nodes; n++ {
		if tree.SubtreeIndex(n) != 0 {
			continue
		}
		for c := 0; c < s.clients; c++ {
			for v := 0; v < s.vars; v++ {
				b.Blocks = append(b.Blocks, cluster.Block{Node: n, Source: c,
					Variable: varName(0, v), Data: p.block(0, 0, n, c, v)})
			}
		}
	}
	return b
}

// sample returns about a mebibyte of the workload's payload, contiguous.
func sample(s spec, p *payloads) []byte {
	var out []byte
	for _, blk := range p.blocks[0][0] {
		out = append(out, blk...)
		if len(out) >= 1<<20 {
			break
		}
	}
	return out
}

func noCleanup() {}

// desBatch is how many waits or timers one call of a DES engine kernel
// runs through a fresh engine.
const desBatch = 1000

// codecKernels returns the encode and decode kernels of one codec.
func codecKernels(name string) []kernel {
	prep := func(decode bool) func(spec, *payloads, uint64, string) (func() (int, error), func(), error) {
		return func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
			codec, err := compress.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			raw := sample(s, p)
			enc, err := codec.Encode(raw, 8)
			if err != nil {
				return nil, nil, err
			}
			if decode {
				return func() (int, error) {
					_, err := codec.Decode(enc, len(raw), 8)
					return len(raw), err
				}, noCleanup, nil
			}
			return func() (int, error) {
				_, err := codec.Encode(raw, 8)
				return len(raw), err
			}, noCleanup, nil
		}
	}
	return []kernel{
		{name: "compress." + name + ".encode_MBps", unit: "MB/s", applies: runtimeOnly, prepare: prep(false)},
		{name: "compress." + name + ".decode_MBps", unit: "MB/s", applies: runtimeOnly, prepare: prep(true)},
	}
}

// iostratKernel times one whole DES strategy run.
func iostratKernel(metric string, strategy desStrategy) kernel {
	return kernel{name: "iostrat." + metric + "_run_s", unit: "s", applies: desOnly,
		prepare: func(s spec, _ *payloads, seed uint64, _ string) (func() (int, error), func(), error) {
			return func() (int, error) {
				_, err := desRun(s, seed, strategy)
				return 0, err
			}, noCleanup, nil
		}}
}

// kernels lists every kernel of the pass, in report order.
func kernels() []kernel {
	ks := []kernel{
		{name: "shm.alloc_free_ns", unit: "ns", applies: runtimeOnly,
			prepare: func(s spec, _ *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				seg, err := shm.NewSegment(shmIterations * s.clients * s.vars * ((s.blockBytes + 63) &^ 63))
				if err != nil {
					return nil, nil, err
				}
				return func() (int, error) {
					b, err := seg.Alloc(s.blockBytes)
					if err != nil {
						return 0, err
					}
					b.Free()
					return 0, nil
				}, seg.Close, nil
			}},
		{name: "shm.queue_send_recv_ns", unit: "ns", applies: runtimeOnly,
			prepare: func(spec, *payloads, uint64, string) (func() (int, error), func(), error) {
				q := shm.NewQueue[core.Event](256)
				return func() (int, error) {
					q.Send(core.Event{Kind: core.EventWrite})
					_, _ = q.Recv()
					return 0, nil
				}, q.Close, nil
			}},
		{name: "buf.clone_MBps", unit: "MB/s", applies: runtimeOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				src := p.blocks[0][0][0]
				return func() (int, error) {
					buf.Put(buf.Clone(src))
					return len(src), nil
				}, noCleanup, nil
			}},
		{name: "cluster.encode_batch_vec_us", unit: "us", applies: runtimeOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				b := rootBatch(s, p)
				return func() (int, error) {
					_ = cluster.EncodeBatchVec(b)
					return 0, nil
				}, noCleanup, nil
			}},
		{name: "cluster.decode_batch_MBps", unit: "MB/s", applies: runtimeOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				obj := cluster.EncodeBatch(rootBatch(s, p))
				return func() (int, error) {
					_, err := cluster.DecodeBatch(obj)
					return len(obj), err
				}, noCleanup, nil
			}},
		{name: "cluster.encode_manifest_us", unit: "us", applies: runtimeOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				b := rootBatch(s, p)
				m := &cluster.Manifest{Format: "damaris-manifest-v1", Job: jobName(0),
					Object: jobName(0) + "-root000-it000000"}
				for _, blk := range b.Blocks {
					m.Blocks = append(m.Blocks, cluster.ManifestBlock{Node: blk.Node,
						Source: blk.Source, Variable: blk.Variable, Bytes: len(blk.Data)})
				}
				return func() (int, error) {
					_ = cluster.EncodeManifest(m)
					return 0, nil
				}, noCleanup, nil
			}},
	}
	for _, name := range []string{"rle", "delta", "gorilla", "flate"} {
		ks = append(ks, codecKernels(name)...)
	}
	ks = append(ks,
		kernel{name: "chunk.split_MBps", unit: "MB/s", applies: runtimeOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				raw := sample(s, p)
				return func() (int, error) {
					_ = chunk.Split(raw, chunk.Params{})
					return len(raw), nil
				}, noCleanup, nil
			}},
		kernel{name: "chunk.sum_MBps", unit: "MB/s", applies: runtimeOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				pieces := chunk.Split(sample(s, p), chunk.Params{})
				return func() (int, error) {
					n := 0
					for _, piece := range pieces {
						_ = chunk.Sum(piece)
						n += len(piece)
					}
					return n, nil
				}, noCleanup, nil
			}},
		kernel{name: "sdf.write_dataset_MBps", unit: "MB/s", applies: sdfOnly,
			prepare: func(s spec, p *payloads, _ uint64, dir string) (func() (int, error), func(), error) {
				obj := cluster.EncodeBatch(rootBatch(s, p))
				path := filepath.Join(dir, "kernel.sdf")
				return func() (int, error) {
					w, err := sdf.Create(path)
					if err != nil {
						return 0, err
					}
					if err := w.WriteDataset("data", meta.Uint8, []int{len(obj)}, obj, "none"); err != nil {
						w.Close()
						return 0, err
					}
					return len(obj), w.Close()
				}, func() { os.Remove(path) }, nil
			}},
		kernel{name: "sdf.read_dataset_MBps", unit: "MB/s", applies: sdfOnly,
			prepare: func(s spec, p *payloads, _ uint64, dir string) (func() (int, error), func(), error) {
				obj := cluster.EncodeBatch(rootBatch(s, p))
				path := filepath.Join(dir, "kernel-read.sdf")
				w, err := sdf.Create(path)
				if err != nil {
					return nil, nil, err
				}
				if err := w.WriteDataset("data", meta.Uint8, []int{len(obj)}, obj, "none"); err != nil {
					w.Close()
					return nil, nil, err
				}
				if err := w.Close(); err != nil {
					return nil, nil, err
				}
				return func() (int, error) {
					r, err := sdf.Open(path)
					if err != nil {
						return 0, err
					}
					defer r.Close()
					data, err := r.ReadDataset("data")
					return len(data), err
				}, func() { os.Remove(path) }, nil
			}},
		kernel{name: "broker.acquire_release_ns", unit: "ns", applies: sharedOnly,
			prepare: func(spec, *payloads, uint64, string) (func() (int, error), func(), error) {
				b := storage.NewShardedBroker(storage.BrokerOptions{
					Policy: storage.PolicyPerTarget, Targets: brokerTargets}, brokerTargets)
				req := storage.TokenRequest{Holder: 0, Targets: []int{0}, Bytes: 1}
				return func() (int, error) {
					g := b.Acquire(req)
					g.Release()
					return 0, nil
				}, noCleanup, nil
			}},
		kernel{name: "stream.publish_ns", unit: "ns", applies: sharedOnly,
			prepare: func(s spec, p *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				st := storage.NewStream()
				// One drop-oldest subscriber that never drains: Publish's
				// steady state with a full queue.
				st.Subscribe(storage.SubOptions{Policy: storage.DropOldest})
				data := p.blocks[0][0][0]
				return func() (int, error) {
					st.Publish("kernel", data)
					return 0, nil
				}, st.Close, nil
			}},
		kernel{name: "service.submit_finish_ms", unit: "ms", applies: runtimeOnly,
			prepare: func(s spec, _ *payloads, _ uint64, _ string) (func() (int, error), func(), error) {
				one := s
				one.tenants, one.shared, one.store = 1, false, storeMemory
				return func() (int, error) {
					sys, err := newSystem(one, "", nil)
					if err != nil {
						return 0, err
					}
					if err := sys.tenants[0].finish(); err != nil {
						return 0, err
					}
					return 0, sys.close()
				}, noCleanup, nil
			}},
		kernel{name: "des.wait_resume_ns", unit: "ns", batch: desBatch, applies: always,
			prepare: func(spec, *payloads, uint64, string) (func() (int, error), func(), error) {
				return func() (int, error) {
					eng := des.NewEngine()
					eng.Spawn("waiter", func(p *des.Proc) {
						for i := 0; i < desBatch; i++ {
							p.Wait(1)
						}
					})
					eng.Run()
					return 0, nil
				}, noCleanup, nil
			}},
		kernel{name: "des.timer_dispatch_ns", unit: "ns", batch: desBatch, applies: always,
			prepare: func(spec, *payloads, uint64, string) (func() (int, error), func(), error) {
				return func() (int, error) {
					eng := des.NewEngine()
					for i := 0; i < desBatch; i++ {
						eng.After(float64(i), func() {})
					}
					eng.Run()
					return 0, nil
				}, noCleanup, nil
			}},
		iostratKernel("damaris", desDamaris),
		iostratKernel("fpp", desFPP),
		iostratKernel("collective", desCollective),
		iostratKernel("tree", desTree),
	)
	return ks
}
