// Package iostrat implements the three I/O approaches compared in the
// paper as discrete-event models over the pfs substrate:
//
//   - file-per-process (§II): every rank writes its own file each output
//     phase — no synchronization, but a metadata storm and many small
//     interleaved streams;
//   - collective two-phase I/O (§II, Thakur et al.): node-level
//     aggregators exchange data and write a single shared file in
//     barriered rounds;
//   - Damaris (§III): one core per node is dedicated to I/O; simulation
//     cores hand their data to it through shared memory (≈0.1 s visible
//     cost) and the dedicated core writes one big file per node
//     asynchronously, overlapped with the next compute phase.
//
// All three run the same bulk-synchronous workload (compute phase, then
// output phase, repeated), so their results are directly comparable.
package iostrat

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Approach names one of the modeled I/O strategies.
type Approach string

// The strategies of the paper's evaluation.
const (
	FilePerProcess Approach = "file-per-process"
	Collective     Approach = "collective"
	Damaris        Approach = "damaris"
)

// Scheduling selects how Damaris dedicated cores coordinate their writes
// (§IV.D "a better I/O scheduling schema").
type Scheduling string

const (
	// SchedNone starts every write immediately (uncoordinated).
	SchedNone Scheduling = "none"
	// SchedOSTToken serializes writers per target OST: at most one
	// dedicated-core stream per OST at a time.
	SchedOSTToken Scheduling = "ost-token"
	// SchedGlobalToken bounds the number of concurrently writing
	// dedicated cores to the number of OSTs.
	SchedGlobalToken Scheduling = "global-token"
	// SchedClusterToken arbitrates across every tree root of the run
	// through one storage.TokenBroker: each stream holds its whole
	// stripe window exclusively, and when roots contend the one whose
	// iteration deadline is nearest is granted first (§IV.C spare-time
	// scheduling across nodes, not just within one backend).
	SchedClusterToken Scheduling = "cluster-token"
)

// Schedulings lists the scheduling policies, SchedNone first.
func Schedulings() []Scheduling {
	return []Scheduling{SchedNone, SchedOSTToken, SchedGlobalToken, SchedClusterToken}
}

// AdaptPolicy selects whether the aggregation forest keeps its
// configured shape for the whole run or re-forms itself mid-run from
// observed bandwidths (tree mode only; see docs/SCENARIOS.md).
type AdaptPolicy string

const (
	// AdaptStatic keeps the configured Fanout/AggRoots (the default).
	AdaptStatic AdaptPolicy = "static"
	// AdaptAdaptive re-derives the forest shape from the observed
	// NIC-vs-PFS bandwidths (cluster.RecommendTopology) and re-forms
	// the tree at an epoch fence: iterations already routing keep
	// their old topology — parents, coverage, root stripe windows —
	// so no in-flight aggregation is stranded or double-written.
	AdaptAdaptive AdaptPolicy = "adaptive"
)

// AdaptPolicies lists the adaptation policies, AdaptStatic first.
func AdaptPolicies() []AdaptPolicy { return []AdaptPolicy{AdaptStatic, AdaptAdaptive} }

// ValidateAdaptPolicy rejects unknown policy names before a run starts
// ("" means AdaptStatic).
func ValidateAdaptPolicy(a AdaptPolicy) error {
	switch a {
	case "", AdaptStatic, AdaptAdaptive:
		return nil
	}
	return fmt.Errorf("iostrat: unknown adaptation policy %q (have %v)", a, AdaptPolicies())
}

// ValidateScheduling rejects unknown policy names before a run starts.
func ValidateScheduling(s Scheduling) error {
	for _, known := range Schedulings() {
		if s == known {
			return nil
		}
	}
	return fmt.Errorf("iostrat: unknown scheduling policy %q", s)
}

// Workload describes the application's output behaviour, CM1-like: a
// predictable compute phase followed by a synchronized output of all
// variables.
type Workload struct {
	// BytesPerCore written by each simulation core per output phase.
	BytesPerCore float64
	// VarsPerCore is the number of distinct variables (i.e. write calls)
	// per core per output phase.
	VarsPerCore int
	// ComputeTime is the duration of one compute phase (seconds) when all
	// cores of the node compute.
	ComputeTime float64
	// ComputeJitter is the log-normal sigma of per-rank compute noise;
	// CM1's compute phases are "extremely predictable", so keep it small.
	ComputeJitter float64
	// Iterations is the number of compute+output cycles.
	Iterations int
}

// NodeBytes returns the bytes produced per node per output phase.
func (w Workload) NodeBytes(coresPerNode int) float64 {
	return w.BytesPerCore * float64(coresPerNode)
}

// CM1Workload returns the workload used for the Kraken runs: ≈38 MB per
// core per output phase across 20 variables, with a 300 s compute phase
// between outputs.
func CM1Workload(iterations int) Workload {
	return Workload{
		BytesPerCore:  38e6,
		VarsPerCore:   20,
		ComputeTime:   300,
		ComputeJitter: 0.004,
		Iterations:    iterations,
	}
}

// Config parameterizes one strategy run.
type Config struct {
	Platform topology.Platform
	Workload Workload
	Seed     uint64

	// Damaris options.

	// ShmCapacity is the per-node shared-memory segment size in bytes
	// (default: 4× the per-iteration node output).
	ShmCapacity float64
	// Scheduling coordinates dedicated-core writes (default SchedNone).
	Scheduling Scheduling
	// Fanout, when >= 2, routes dedicated-core output through the
	// cross-node k-ary aggregation tree of internal/cluster: leaf
	// dedicated cores forward their node's iteration over the NIC,
	// interior nodes batch their subtree, and tree roots stripe few
	// large sequential streams onto the backend. 0 or 1 keeps the
	// paper's baseline of one file per node per iteration.
	Fanout int
	// AggRoots is the number of aggregation trees when Fanout >= 2
	// (default: Nodes/Fanout², keeping trees about two levels deep so
	// aggregation does not funnel the whole machine through one node).
	AggRoots int
	// RootStripes is how many backend targets each root write is
	// striped over. The default scales with the storage system —
	// Targets/(2·roots), clamped to [8, 64] — so few aggregated
	// streams can still fill the OST array.
	RootStripes int
	// FilesPerIter is the number of files each dedicated core writes per
	// iteration (default 1; the A2 ablation sweeps it).
	FilesPerIter int
	// Codec prices the storage-layer compression pipeline: the PFS
	// model is wrapped in storage.CodecCost, so every Write/Read charges
	// the codec's CPU rate on the dedicated cores and moves only the
	// encoded volume. "" or "none" disables it; a codec name fixes the
	// codec; storage.AdaptiveCodec lets the selector choose once, from
	// the profile table (E5, C1).
	Codec string
	// Dedup prices the content-addressed chunk store: the stack is
	// wrapped in chunk.Cost, outermost, as the runtime stack wraps
	// chunk.Store — dedup sees raw payload bytes and its forwarded
	// volume rides the codec layer underneath. Every write is charged
	// chunking+hashing CPU on the dedicated core and only the new
	// fraction of the volume (plus recipe overhead) is forwarded (E10).
	Dedup bool
	// DedupNewFraction is the fraction of each write's chunks assumed
	// not already stored, passed to chunk.Cost (default 1: every chunk
	// is new, dedup saves nothing). E10's overwrite-fraction sweep
	// varies it.
	DedupNewFraction float64
	// InSitu couples an analysis consumer to every aggregation-tree
	// root (tree mode only): the DES mirror of the runtime streaming
	// face, pricing analysis CPU against dedicated-core spare time and
	// sweeping stream vs file-then-read couplings (the E7 extension).
	// See InSituConfig. The zero value disables it.
	InSitu InSituConfig
	// Failures schedules node deaths in tree mode (nil: none), the DES
	// mirror of cluster.RunSpec.Failures: when a scheduled node's
	// dedicated core reaches its death iteration, the node's I/O stack
	// stops (its output from that iteration on is lost), its children
	// re-route to its parent (or a promoted sibling when a root dies),
	// and its in-flight aggregations drain to the re-route target. The
	// simulation ranks keep computing — the model isolates the
	// I/O-layer data-loss/latency trade of losing aggregation nodes.
	Failures *cluster.FailureSchedule
	// Scenario, when non-nil, drives the run from a deterministic
	// workload trace (internal/workload): per-iteration output volumes,
	// compute times and variable counts replace the flat Workload
	// numbers, platform shifts step the NIC/PFS bandwidth mid-run, and
	// node losses merge into Failures. The trace must be generated for
	// this platform's node count. Workload.Iterations is taken from the
	// trace.
	Scenario *workload.Trace
	// Adapt selects static vs adaptive tree shaping in tree mode
	// (default AdaptStatic). See AdaptPolicy.
	Adapt AdaptPolicy

	// testBase, when set (tests only), builds the base cost model in
	// place of the PFS model, under the codec and dedup layers.
	testBase func(*des.Engine, *rng.Stream) storage.CostModel
}

// Canonical returns c with every default filled in, the form Run and
// RestartRead use: equal canonical forms run the same model.
func (c Config) Canonical() Config {
	if c.Scenario != nil {
		// The trace overrides the flat workload: its first iteration
		// seeds the base numbers (reports, stretch math), the trace
		// length fixes the iteration count, and the per-iteration
		// values are applied inside the run.
		c.Workload.Iterations = c.Scenario.Iterations()
		if len(c.Scenario.Iters) > 0 {
			it0 := c.Scenario.Iters[0]
			c.Workload.BytesPerCore = it0.BytesPerCore
			c.Workload.ComputeTime = it0.ComputeTime
			c.Workload.VarsPerCore = it0.VarsPerCore
		}
	}
	if c.ShmCapacity == 0 {
		peak := c.Workload.BytesPerCore
		if c.Scenario != nil {
			// Size the segment for the trace's peak iteration (AMR
			// growth), so scenario volume swings do not turn into §V.C
			// skips that break the no-loss acceptance checks.
			if m := c.Scenario.MaxBytesPerCore(); m > peak {
				peak = m
			}
		}
		c.ShmCapacity = 4 * peak * float64(c.Platform.CoresPerNode)
	}
	if c.Adapt == "" {
		c.Adapt = AdaptStatic
	}
	if c.Scheduling == "" {
		c.Scheduling = SchedNone
	}
	if c.FilesPerIter == 0 {
		c.FilesPerIter = 1
	}
	if c.Codec == "none" {
		c.Codec = ""
	}
	c.InSitu = c.InSitu.withDefaults()
	if c.Fanout >= 2 && c.AggRoots == 0 {
		c.AggRoots = c.Platform.Nodes / (c.Fanout * c.Fanout)
		if c.AggRoots < 1 {
			c.AggRoots = 1
		}
	}
	return c
}

// newCostModel builds one run's cost stack: the PFS model (r seeds it),
// then storage.CodecCost when Codec is set, then chunk.Cost when Dedup
// is — the runtime stack's order (chunk.Stack). The base is returned
// alongside, so scenario platform shifts can reach model-level knobs
// (bandwidth factors) through the layers.
func (c Config) newCostModel(eng *des.Engine, r *rng.Stream) (cm, base storage.CostModel, err error) {
	if c.testBase != nil {
		base = c.testBase(eng, r)
	} else {
		base = storage.NewPFS(eng, c.Platform.PFS, r)
	}
	cm = base
	if c.Codec != "" {
		if cm, err = storage.CodecCost(cm, c.Codec); err != nil {
			return nil, nil, err
		}
	}
	if c.Dedup {
		cm = chunk.Cost(cm, c.DedupNewFraction)
	}
	return cm, base, nil
}

// Result reports what one strategy run measured.
type Result struct {
	Approach Approach
	Platform topology.Platform
	Workload Workload

	// TotalTime is the application run time: start until the last rank
	// finishes its final iteration (dedicated-core draining excluded, as
	// in the paper's "scalability does not depend on I/O anymore").
	TotalTime float64
	// IOTimes has one entry per iteration: the application-visible
	// duration of the output phase (max over ranks).
	IOTimes []float64
	// RankWriteTimes samples the per-rank, per-iteration time spent in
	// the write call (file write for sync approaches, shared-memory write
	// for Damaris).
	RankWriteTimes []float64
	// BytesWritten is the total payload that reached the file system.
	BytesWritten float64
	// IOWindow is the union of time during which at least one transfer
	// was in flight; BytesWritten/IOWindow is the achieved aggregate
	// throughput.
	IOWindow float64
	// FilesCreated counts MDS create operations.
	FilesCreated int
	// BytesSaved is the payload kept off the storage transfer by the
	// Codec pipeline (0 without one); BytesWritten already reflects the
	// shrunken volume.
	BytesSaved float64
	// CodecCPUTime is the codec CPU charged on the dedicated cores by
	// the Codec pipeline (encode plus decode).
	CodecCPUTime float64
	// DedupBytesSaved is the payload volume the Dedup chunk store kept
	// off the backend transfer (0 without it); BytesWritten already
	// reflects the deduplicated volume.
	DedupBytesSaved float64
	// HashCPUTime is the chunking/hashing CPU the Dedup store charged
	// on the dedicated cores (write-side fingerprinting plus read-side
	// verification).
	HashCPUTime float64
	// SchedWaitTime is the total virtual time dedicated cores spent
	// waiting for a scheduling token (0 under SchedNone).
	SchedWaitTime float64
	// RootContention counts token grants that had to queue behind
	// another writer — how often the schedule actually arbitrated.
	RootContention int

	// Damaris-only measurements.

	// DedicatedBusy is the total busy time summed over dedicated cores.
	DedicatedBusy float64
	// DedicatedTotal is the total dedicated-core time available
	// (cores × run time, including the drain window).
	DedicatedTotal float64
	// SkippedIters counts iterations dropped because the shared-memory
	// segment was full (the paper's §V.C loss-over-blocking policy).
	SkippedIters int
	// DrainTime is when the last dedicated-core write completed.
	DrainTime float64

	// Failure measurements (tree mode with a failure schedule).

	// NodesFailed counts nodes killed by the failure schedule.
	NodesFailed int
	// ReroutedEdges counts aggregation-tree edges moved by failures,
	// root promotions included.
	ReroutedEdges int
	// LostBytes is the payload that never reached the backend because
	// its node died (own output from the death iteration on, plus any
	// orphaned aggregations with nowhere to drain).
	LostBytes float64
	// Completeness has one entry per iteration in tree mode: the
	// fraction of nodes whose contribution reached a root write (1.0
	// everywhere without failures; skips still count as participation,
	// mirroring the runtime cluster's zero-block batches).
	Completeness []float64
	// TreeWriteLatencies has one entry per iteration in tree mode: from
	// the output phase's start until the last root write of that
	// iteration completed, token waits included — the per-iteration
	// write tail the cross-root schedule is meant to flatten.
	TreeWriteLatencies []float64
	// TreeReforms counts mid-run topology re-formations (0 under
	// AdaptStatic); each one opened a new tree epoch at an iteration
	// fence.
	TreeReforms int

	// In-situ measurements (tree mode with Config.InSitu).

	// FramesAnalyzed counts root frames the analysis consumers fully
	// processed; FramesDropped counts frames the slow-consumer policy
	// discarded (evicted under drop-oldest, refused under sample).
	FramesAnalyzed int
	FramesDropped  int
	// AnalysisCPUTime is the kernel CPU the consumers charged on the
	// dedicated cores — §V spare time spent on analysis, also included
	// in DedicatedBusy.
	AnalysisCPUTime float64
	// StreamBlockTime is the total time publishers (root write paths)
	// spent blocked on a full consumer queue — non-zero only under the
	// storage.Block policy, and the write-path cost E7's extension
	// shows drop-oldest avoiding.
	StreamBlockTime float64
	// AnalysisLatencies has one entry per analyzed frame: from the
	// frame's output-phase start until its analysis completed — the
	// end-to-end freshness metric streaming is meant to shrink.
	AnalysisLatencies []float64
}

// account copies the cost stack's ledger into r.
func (r *Result) account(be storage.CostModel) {
	acc := be.Accounting()
	r.BytesWritten, r.IOWindow, r.BytesSaved = acc.BytesWritten, acc.IOBusyTime, acc.BytesSaved
	r.CodecCPUTime = acc.EncodeTime + acc.DecodeTime
	r.DedupBytesSaved, r.HashCPUTime = acc.DedupBytesSaved, acc.ChunkHashTime
}

// MeanAnalysisLatency returns the mean end-to-end analysis latency
// (0 without in-situ frames).
func (r Result) MeanAnalysisLatency() float64 {
	if len(r.AnalysisLatencies) == 0 {
		return 0
	}
	return stats.Mean(r.AnalysisLatencies)
}

// WriteTailSpread returns the standard deviation of the per-iteration
// root-write latencies (0 outside tree mode) — E6's cross-root
// variability metric.
func (r Result) WriteTailSpread() float64 {
	if len(r.TreeWriteLatencies) == 0 {
		return 0
	}
	return stats.StdDev(r.TreeWriteLatencies)
}

// MeanIOTime returns the mean application-visible output-phase duration.
func (r Result) MeanIOTime() float64 { return stats.Mean(r.IOTimes) }

// MaxIOTime returns the worst output phase.
func (r Result) MaxIOTime() float64 { return stats.Max(r.IOTimes) }

// IOFraction returns the share of run time spent in application-visible
// I/O phases.
func (r Result) IOFraction() float64 {
	if r.TotalTime == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range r.IOTimes {
		sum += t
	}
	return sum / r.TotalTime
}

// Throughput returns the achieved aggregate write throughput in bytes/s.
func (r Result) Throughput() float64 {
	if r.IOWindow == 0 {
		return 0
	}
	return r.BytesWritten / r.IOWindow
}

// DataLossFraction returns the share of node-iterations whose output
// never reached the storage backend: §V.C skips plus failure-driven
// coverage loss. 0 for a run with neither.
func (r Result) DataLossFraction() float64 {
	total := float64(r.Platform.Nodes * r.Workload.Iterations)
	if total == 0 {
		return 0
	}
	lost := float64(r.SkippedIters)
	for _, frac := range r.Completeness {
		lost += (1 - frac) * float64(r.Platform.Nodes)
	}
	return lost / total
}

// IdleFraction returns the idle share of the dedicated cores (Damaris
// only; 0 for other approaches).
func (r Result) IdleFraction() float64 {
	if r.DedicatedTotal == 0 {
		return 0
	}
	return 1 - r.DedicatedBusy/r.DedicatedTotal
}

// Run executes the named approach under cfg and returns its measurements.
func Run(a Approach, cfg Config) (Result, error) {
	cfg = cfg.Canonical()
	switch a {
	case FilePerProcess:
		return runFPP(cfg)
	case Collective:
		return runCollective(cfg)
	case Damaris:
		return runDamaris(cfg)
	default:
		return Result{}, fmt.Errorf("iostrat: unknown approach %q", a)
	}
}
