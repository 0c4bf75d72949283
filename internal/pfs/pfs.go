// Package pfs models a Lustre-like parallel file system as a discrete-
// event system: a single metadata server (MDS) serializing namespace
// operations, and a set of object storage targets (OSTs) serving
// concurrent write streams under processor sharing with pattern-dependent
// efficiency.
//
// The model reproduces the three I/O regimes of the paper's evaluation:
//
//   - file-per-process: one small file per rank → metadata storm at the
//     MDS and dozens of interleaved streams per OST (Pattern SmallFile);
//   - collective I/O: one shared file → extent-lock serialization collapses
//     per-OST efficiency (Pattern SharedFile), and barriered rounds let
//     stragglers dominate;
//   - dedicated cores (Damaris): one big sequential file per node → few
//     high-efficiency streams per OST (Pattern BigSequential).
//
// Per-request jitter (log-normal body, Pareto tail) and per-phase per-OST
// congestion factors model the variability the paper attributes to the
// shared storage system.
package pfs

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Pattern classifies a write stream's access pattern, which determines how
// efficiently an OST serves it under concurrency.
type Pattern int

const (
	// BigSequential is a large contiguous stream into its own file.
	BigSequential Pattern = iota
	// SmallFile is a per-process file written in small chunks.
	SmallFile
	// SharedFile is a write into a file shared with other clients,
	// subject to extent-lock serialization.
	SharedFile
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case BigSequential:
		return "big-sequential"
	case SmallFile:
		return "small-file"
	case SharedFile:
		return "shared-file"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// FS is a simulated parallel file system bound to a DES engine. The OSTs
// are held by value, transfers carved from blocks of 64 (spare), and MDS
// operations in flight reuse their slots through freeOps.
type FS struct {
	eng       *des.Engine
	params    topology.PFSParams
	bwFactor  float64 // mid-run bandwidth multiplier (SetBandwidthFactor)
	mds       *des.Resource
	osts      []ost
	transfers []*transfer // the straggling ones, by index
	spare     []transfer  // the rest of the current block
	metaOps   []metaOp
	freeOps   []int32

	kStart, kComplete, kMetaHeld, kMetaDone des.Kind

	totalBytes, totalBytesRead float64

	// Union-of-activity accounting: time during which at least one
	// transfer was in flight anywhere on the file system.
	activeTransfers int
	busySince       float64
	busyTotal       float64
}

// New creates a file system model. The rng stream seeds per-OST jitter
// streams; New does not retain it.
func New(eng *des.Engine, params topology.PFSParams, r *rng.Stream) *FS {
	fs := &FS{
		eng:      eng,
		params:   params,
		bwFactor: 1,
		mds:      eng.NewResource(1),
		osts:     make([]ost, params.OSTs),
	}
	fs.kStart = eng.Handle(func(i int32) { fs.transfers[i].start() })
	fs.kComplete = eng.Handle(func(i int32) { fs.osts[i].advance(); fs.osts[i].recompute() })
	fs.kMetaHeld = eng.Handle(func(i int32) { eng.Post(fs.metaOps[i].service, fs.kMetaDone, i) })
	fs.kMetaDone = eng.Handle(fs.metaDone)
	active := make([]*transfer, len(fs.osts)) // one slot per OST to start
	for i := range fs.osts {
		fs.osts[i] = ost{fs: fs, rng: *r.Child(uint64(i)), congestion: 1,
			timer: eng.PostTimer(fs.kComplete, int32(i)), active: active[i : i : i+1]}
	}
	return fs
}

// OSTCount returns the number of OSTs.
func (fs *FS) OSTCount() int { return len(fs.osts) }

// TotalBytes returns the bytes written by completed transfers so far.
func (fs *FS) TotalBytes() float64 { return fs.totalBytes }

// TotalBytesRead returns the bytes read by completed transfers so far.
func (fs *FS) TotalBytesRead() float64 { return fs.totalBytesRead }

// BeginPhase draws fresh per-OST congestion factors, modeling interference
// from other applications sharing the storage system during this I/O
// phase. Call it once per application I/O phase.
func (fs *FS) BeginPhase() {
	for i := range fs.osts {
		o := &fs.osts[i]
		o.advance()
		if fs.params.CongestionSigma > 0 {
			o.congestion = 1 / o.rng.UnitLogNormal(fs.params.CongestionSigma)
			if o.congestion > 1 {
				// Congestion only hurts: cap the lucky draws at nominal.
				o.congestion = 1
			}
		}
		o.recompute()
	}
}

// SetBandwidthFactor scales every OST's peak bandwidth by factor (> 0,
// absolute against nominal, not cumulative) from the current virtual
// time on — the mid-run platform shift the workload scenarios schedule,
// e.g. a storage-system degradation or recovery. In-flight transfers
// drain at the old rate up to now and at the new rate afterwards.
func (fs *FS) SetBandwidthFactor(factor float64) {
	if factor <= 0 {
		return
	}
	for i := range fs.osts {
		fs.osts[i].advance()
	}
	fs.bwFactor = factor
	for i := range fs.osts {
		fs.osts[i].recompute()
	}
}

// metaOp is one metadata operation in flight: it holds the MDS for its
// service time, then runs k.
type metaOp struct {
	service float64
	k       func()
}

// meta serializes one metadata operation of the given service time at
// the MDS and runs k once the MDS has released it.
func (fs *FS) meta(service float64, k func()) {
	i := int32(len(fs.metaOps))
	if n := len(fs.freeOps); n > 0 {
		i, fs.freeOps = fs.freeOps[n-1], fs.freeOps[:n-1]
	} else {
		fs.metaOps = append(fs.metaOps, metaOp{})
	}
	fs.metaOps[i] = metaOp{service, k}
	fs.mds.AcquirePost(1, fs.kMetaHeld, i)
}

func (fs *FS) metaDone(i int32) {
	k := fs.metaOps[i].k
	fs.metaOps[i].k = nil
	fs.freeOps = append(fs.freeOps, i)
	fs.mds.Release(1)
	k()
}

// Create performs a file-create at the MDS, then runs k.
func (fs *FS) Create(k func()) { fs.meta(fs.params.MDSCreate, k) }

// Open performs a file-open at the MDS, then runs k.
func (fs *FS) Open(k func()) { fs.meta(fs.params.MDSOpen, k) }

// Close performs a file-close at the MDS, then runs k.
func (fs *FS) Close(k func()) { fs.meta(fs.params.MDSClose, k) }

// PlaceFile chooses stripeCount distinct OSTs for a new file (see Place).
func (fs *FS) PlaceFile(stripeCount int, r *rng.Stream) []int {
	return Place(len(fs.osts), stripeCount, r)
}

// Place chooses stripes distinct targets out of n, mimicking Lustre's
// randomized allocator: every target, in order and without a draw, when
// stripes >= n; otherwise a draw from r, so placement is reproducible
// per caller.
func Place(n, stripes int, r *rng.Stream) []int {
	if stripes < n {
		return r.Sample(n, stripes)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// WriteAsync submits a whole-file write of the given size and pattern to
// one OST and returns a future completed when the transfer finishes. The
// per-file overhead (object allocation, initial seeks) is charged once.
func (fs *FS) WriteAsync(ostID int, bytes float64, pat Pattern) *des.Future {
	return fs.submit(ostID, bytes, fs.params.FileOverhead, pat, false)
}

// WriteChunkAsync submits one chunk of an already-open file (e.g. one
// two-phase round): no per-file overhead is charged.
func (fs *FS) WriteChunkAsync(ostID int, bytes float64, pat Pattern) *des.Future {
	return fs.submit(ostID, bytes, 0, pat, false)
}

// ReadAsync submits a whole-file read of the given size and pattern to
// one OST and returns a future completed when the transfer finishes.
// Reads are served by the same per-OST processor-sharing queues as
// writes — a restart competes with whatever else the storage system is
// doing — and are accounted separately (TotalBytesRead).
func (fs *FS) ReadAsync(ostID int, bytes float64, pat Pattern) *des.Future {
	return fs.submit(ostID, bytes, fs.params.FileOverhead, pat, true)
}

func (fs *FS) submit(ostID int, bytes, fileOverhead float64, pat Pattern, read bool) *des.Future {
	o := &fs.osts[ostID]
	if len(fs.spare) == 0 {
		fs.spare = make([]transfer, 64)
	}
	t := &fs.spare[0]
	fs.spare = fs.spare[1:]
	t.future = *fs.eng.NewFuture()
	if bytes <= 0 {
		t.future.Complete()
		return &t.future
	}
	jitter, straggle := o.drawJitter()
	// The fixed per-file cost is expressed as byte-equivalents at peak
	// rate, so it flows through the processor-sharing arithmetic
	// (allocation under load is slower too).
	t.ost, t.remaining, t.payload, t.pat, t.read = o, bytes*jitter+fileOverhead*fs.params.OSTBandwidth, bytes, pat, read
	if straggle > 0 {
		// A straggler episode (stuck RPC, server hiccup) costs wall-clock
		// time before the request is serviced, independent of the
		// request's size or the OST's current load.
		fs.transfers = append(fs.transfers, t)
		fs.eng.Post(straggle, fs.kStart, int32(len(fs.transfers)-1))
	} else {
		t.start()
	}
	return &t.future
}

// start puts the transfer in service on its OST.
func (t *transfer) start() {
	fs, o := t.ost.fs, t.ost
	if fs.activeTransfers == 0 {
		fs.busySince = fs.eng.Now()
	}
	fs.activeTransfers++
	o.advance()
	o.active = append(o.active, t)
	o.recompute()
}

// Write runs k once a whole-file write of the given size and pattern to
// ostID completes.
func (fs *FS) Write(ostID int, bytes float64, pat Pattern, k func()) {
	fs.WriteAsync(ostID, bytes, pat).Then(k)
}

// IOBusyTime returns the union of time during which at least one transfer
// was in flight. BytesWritten / IOBusyTime is the achieved aggregate
// throughput in the sense of the paper's §IV.C.
func (fs *FS) IOBusyTime() float64 {
	t := fs.busyTotal
	if fs.activeTransfers > 0 {
		t += fs.eng.Now() - fs.busySince
	}
	return t
}

// ost is one object storage target serving its active transfers under
// processor sharing: the OST's effective bandwidth (peak × pattern
// efficiency × congestion) is split equally among active streams.
type ost struct {
	fs         *FS
	rng        rng.Stream
	congestion float64

	// active holds in-flight transfers in arrival order; keeping a slice
	// (not a map) makes completion order — and thus the whole simulation —
	// deterministic.
	active     []*transfer
	lastUpdate float64
	rate       float64   // current per-transfer drain rate (bytes/s)
	timer      des.Timer // next completion
}

type transfer struct {
	ost       *ost
	remaining float64 // jitter-inflated bytes left to serve
	payload   float64 // real bytes (accounted on completion)
	pat       Pattern
	read      bool // accounted to TotalBytesRead, not TotalBytes
	future    des.Future
}

// drawJitter returns the multiplicative log-normal service jitter and an
// additive straggler delay in seconds (a stuck RPC or server hiccup costs
// wall time, not time proportional to the request size).
func (o *ost) drawJitter() (mult, straggleSeconds float64) {
	p := o.fs.params
	mult = 1.0
	if p.JitterSigma > 0 {
		mult = o.rng.UnitLogNormal(p.JitterSigma)
	}
	if p.HeavyTailProb > 0 && o.rng.Float64() < p.HeavyTailProb {
		straggleSeconds = o.rng.Pareto(p.HeavyTailScale, p.HeavyTailAlpha)
		// Interference episodes last seconds to a couple of minutes; cap
		// the Pareto tail so one draw cannot dominate a whole run.
		if straggleSeconds > 120 {
			straggleSeconds = 120
		}
	}
	return mult, straggleSeconds
}

// efficiency returns the fraction of OST peak delivered in aggregate when
// n streams of the given blended pattern mix are active.
func (o *ost) efficiency(n int) float64 {
	if n == 0 {
		return 1
	}
	p := o.fs.params
	// Blend the per-pattern degradation over the active mix.
	var base, alpha float64
	for _, t := range o.active {
		switch t.pat {
		case BigSequential:
			base += 1
			alpha += p.AlphaSeq
		case SmallFile:
			base += p.SmallBase
			alpha += p.AlphaSmall
		case SharedFile:
			base += p.SharedBase
			alpha += p.AlphaShared
		}
	}
	base /= float64(n)
	alpha /= float64(n)
	return base / (1 + alpha*float64(n-1))
}

// advance drains the active transfers for the time elapsed since the last
// update at the previously computed rate.
func (o *ost) advance() {
	now := o.fs.eng.Now()
	dt := now - o.lastUpdate
	o.lastUpdate = now
	if dt <= 0 || o.rate <= 0 || len(o.active) == 0 {
		return
	}
	drained := o.rate * dt
	for _, t := range o.active {
		t.remaining -= drained
		if t.remaining < 1 { // sub-byte residue: done
			t.remaining = 0
		}
	}
}

// recompute completes any finished transfers, recomputes the shared rate,
// and schedules the next completion.
func (o *ost) recompute() {
	// Complete transfers drained to zero, preserving arrival order.
	live := o.active[:0]
	for _, t := range o.active {
		if t.remaining <= 0 {
			if t.read {
				o.fs.totalBytesRead += t.payload
			} else {
				o.fs.totalBytes += t.payload
			}
			o.fs.activeTransfers--
			if o.fs.activeTransfers == 0 {
				o.fs.busyTotal += o.fs.eng.Now() - o.fs.busySince
			}
			t.future.Complete()
		} else {
			live = append(live, t)
		}
	}
	o.active = live
	n := len(o.active)
	if n == 0 {
		o.rate = 0
		o.timer.Cancel()
		return
	}
	p := o.fs.params
	aggregate := p.OSTBandwidth * o.fs.bwFactor * o.efficiency(n) * o.congestion
	if aggregate < 1 { // floor to avoid virtually-stalled transfers
		aggregate = 1
	}
	o.rate = aggregate / float64(n)
	// Next completion: the smallest remaining backlog.
	min := math.Inf(1)
	for _, t := range o.active {
		if t.remaining < min {
			min = t.remaining
		}
	}
	o.timer.Set(o.fs.eng.Now() + min/o.rate)
}
