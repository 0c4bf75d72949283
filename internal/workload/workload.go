// Package workload generates deterministic simulation scenarios: the
// per-iteration output shape (bytes, cadence, dataset mix) and the
// mid-run platform shifts (NIC/PFS bandwidth steps, node loss/rejoin)
// an experiment drives a Damaris run with.
//
// Determinism is the whole design. A scenario is a pure function of a
// Spec: every generator pass draws only from its own subsystem stream
// of a partitioned RNG (rng.Partition / rng.SimulationKey) and writes
// only its own trace fields, so the passes may run in any order — or
// concurrently — and the resulting Trace is byte-identical for a given
// seed. Trace.Encode serializes that claim into testable bytes; the
// contract is documented in docs/SCENARIOS.md.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Scenario names understood by Generate. Each names one family of
// per-iteration shapes and platform events; docs/SCENARIOS.md is the
// narrative vocabulary.
const (
	// Steady is the constant baseline: every iteration writes the same
	// bytes after the same compute time.
	Steady = "steady"
	// Bursty alternates quiet stretches with output bursts: short
	// compute gaps and size spikes clustered together.
	Bursty = "bursty"
	// AMR grows per-iteration output as refinement events multiply the
	// mesh, capped at 8x the base size.
	AMR = "amr"
	// ParticleMix varies the particle-vs-grid share of each iteration's
	// bytes, shifting variable counts and sizes with it.
	ParticleMix = "particle-mix"
	// WeakLadder sweeps node counts with constant per-core output (the
	// weak-scaling ladder of Huebl et al., arXiv:1706.00522).
	WeakLadder = "weak-ladder"
	// StrongLadder sweeps node counts with constant total output, so
	// per-core bytes shrink as the machine grows.
	StrongLadder = "strong-ladder"
	// NICStep drops interconnect bandwidth by a drawn factor mid-run —
	// the platform shift elastic adaptation must react to.
	NICStep = "nic-step"
	// PFSStep drops parallel-file-system bandwidth by a drawn factor
	// mid-run.
	PFSStep = "pfs-step"
	// NodeChurn kills a drawn subset of nodes mid-run and schedules one
	// rejoin event (rejoin is an adaptation trigger, not a revival —
	// see docs/SCENARIOS.md).
	NodeChurn = "node-churn"
)

// Scenarios lists every scenario name Generate accepts, in the order
// E11 sweeps them.
func Scenarios() []string {
	return []string{Steady, Bursty, AMR, ParticleMix, WeakLadder,
		StrongLadder, NICStep, PFSStep, NodeChurn}
}

// ValidateScenario rejects unknown scenario names before a run starts.
func ValidateScenario(name string) error {
	for _, s := range Scenarios() {
		if s == name {
			return nil
		}
	}
	return fmt.Errorf("workload: unknown scenario %q (have %v)", name, Scenarios())
}

// Spec is the input to Generate: which scenario, from which seed, over
// how many iterations and nodes, around which base workload. The zero
// values of the base fields default to the CM1-like shape the paper's
// experiments use.
type Spec struct {
	// Scenario is one of Scenarios().
	Scenario string
	// Seed is the root seed; equal specs generate byte-identical traces.
	Seed uint64
	// Iterations is the trace length (default 8).
	Iterations int
	// Nodes is the node count the trace targets — node-churn events
	// draw victims from it and ladders start from it (default 16).
	Nodes int
	// BaseBytesPerCore is the unperturbed per-core output per iteration
	// in bytes (default 38e6, the CM1 checkpoint shape).
	BaseBytesPerCore float64
	// BaseComputeTime is the unperturbed compute phase in seconds
	// (default 300).
	BaseComputeTime float64
}

// baseVarsPerCore is the unperturbed variable count per core (the CM1
// checkpoint shape).
const baseVarsPerCore = 20

func (s Spec) withDefaults() Spec {
	if s.Iterations == 0 {
		s.Iterations = 8
	}
	if s.Nodes == 0 {
		s.Nodes = 16
	}
	if s.BaseBytesPerCore == 0 {
		s.BaseBytesPerCore = 38e6
	}
	if s.BaseComputeTime == 0 {
		s.BaseComputeTime = 300
	}
	return s
}

// pass is one generator subsystem: it draws only from its own stream
// and writes only its own trace fields, so passes commute.
type pass struct {
	subsystem string
	run       func(s *rng.Stream, spec Spec, tr *Trace)
}

// passes returns every generator subsystem. The slice order is the
// default execution order; correctness must not depend on it (the
// interleaving property test permutes it).
func passes() []pass {
	return []pass{
		{"cadence", cadencePass},
		{"size", sizePass},
		{"mix", mixPass},
		{"platform", platformPass},
		{"ladder", ladderPass},
	}
}

// Generate produces the deterministic trace for spec. Equal specs
// yield byte-identical traces (compare with Trace.Encode or
// Trace.Fingerprint) regardless of how the generator's subsystem
// passes interleave.
func Generate(spec Spec) (*Trace, error) {
	return generate(spec, nil)
}

// generate runs the passes in the order given by perm (identity when
// nil) — the hook the interleaving property test uses to prove pass
// order is irrelevant.
func generate(spec Spec, perm []int) (*Trace, error) {
	spec = spec.withDefaults()
	if err := ValidateScenario(spec.Scenario); err != nil {
		return nil, err
	}
	if spec.Iterations < 1 {
		return nil, fmt.Errorf("workload: Iterations %d < 1", spec.Iterations)
	}
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("workload: Nodes %d < 1", spec.Nodes)
	}
	tr := &Trace{
		Scenario: spec.Scenario,
		Seed:     spec.Seed,
		Nodes:    spec.Nodes,
		Iters:    make([]IterSpec, spec.Iterations),
	}
	for i := range tr.Iters {
		tr.Iters[i] = IterSpec{
			BytesPerCore: spec.BaseBytesPerCore,
			ComputeTime:  spec.BaseComputeTime,
			VarsPerCore:  baseVarsPerCore,
		}
	}
	part := rng.NewPartition(spec.Seed)
	ps := passes()
	if perm == nil {
		perm = make([]int, len(ps))
		for i := range perm {
			perm[i] = i
		}
	}
	for _, i := range perm {
		p := ps[i]
		p.run(part.Subsystem("workload/"+p.subsystem), spec, tr)
	}
	tr.canonicalize()
	return tr, nil
}

// cadencePass shapes ComputeTime. Bursty alternates drawn-length quiet
// stretches (slow output cadence) with bursts of rapid iterations.
func cadencePass(s *rng.Stream, spec Spec, tr *Trace) {
	if spec.Scenario != Bursty {
		return
	}
	i := 0
	for i < len(tr.Iters) {
		quiet := 1 + s.Intn(3)
		for j := 0; j < quiet && i < len(tr.Iters); j++ {
			tr.Iters[i].ComputeTime = spec.BaseComputeTime * 1.5
			i++
		}
		burst := 1 + s.Intn(3)
		for j := 0; j < burst && i < len(tr.Iters); j++ {
			tr.Iters[i].ComputeTime = spec.BaseComputeTime * 0.25
			i++
		}
	}
}

// sizePass shapes BytesPerCore. AMR applies multiplicative refinement
// growth capped at 8x; Bursty spikes individual iterations.
func sizePass(s *rng.Stream, spec Spec, tr *Trace) {
	switch spec.Scenario {
	case AMR:
		growth := 1.0
		for i := range tr.Iters {
			if s.Float64() < 0.35 {
				growth *= 1.3 + 0.5*s.Float64()
				if growth > 8 {
					growth = 8
				}
			}
			tr.Iters[i].BytesPerCore = spec.BaseBytesPerCore * growth
		}
	case Bursty:
		for i := range tr.Iters {
			if s.Float64() < 0.25 {
				tr.Iters[i].BytesPerCore = spec.BaseBytesPerCore * (2 + 2*s.Float64())
			} else {
				tr.Iters[i].BytesPerCore = spec.BaseBytesPerCore * 0.6
			}
		}
	}
}

// mixPass shapes the particle-vs-grid dataset mix: particle-heavy
// iterations carry fewer, larger variables.
func mixPass(s *rng.Stream, spec Spec, tr *Trace) {
	if spec.Scenario != ParticleMix {
		return
	}
	for i := range tr.Iters {
		frac := 0.15 + 0.7*s.Float64()
		tr.Iters[i].ParticleFraction = frac
		vars := int(baseVarsPerCore * (1.2 - frac))
		if vars < 2 {
			vars = 2
		}
		tr.Iters[i].VarsPerCore = vars
	}
}

// platformPass schedules mid-run platform shifts: bandwidth steps for
// the step scenarios, node loss/rejoin for node-churn.
func platformPass(s *rng.Stream, spec Spec, tr *Trace) {
	n := spec.Iterations
	switch spec.Scenario {
	case NICStep:
		at := n/3 + s.Intn(maxInt(1, n/6))
		tr.Shifts = append(tr.Shifts, PlatformShift{
			Iteration: at, Kind: ShiftNICBandwidth, Factor: 0.2 + 0.15*s.Float64(),
		})
	case PFSStep:
		at := n/3 + s.Intn(maxInt(1, n/6))
		tr.Shifts = append(tr.Shifts, PlatformShift{
			Iteration: at, Kind: ShiftPFSBandwidth, Factor: 0.2 + 0.2*s.Float64(),
		})
	case NodeChurn:
		losses := maxInt(1, spec.Nodes/8)
		seen := map[int]bool{}
		for k := 0; k < losses; k++ {
			node := s.Intn(spec.Nodes)
			for seen[node] {
				node = s.Intn(spec.Nodes)
			}
			seen[node] = true
			tr.Shifts = append(tr.Shifts, PlatformShift{
				Iteration: 1 + s.Intn(maxInt(1, n-1)), Kind: ShiftNodeLoss, Node: node,
			})
		}
		// One rejoin near the end: an adaptation trigger, not a revival.
		tr.Shifts = append(tr.Shifts, PlatformShift{
			Iteration: maxInt(1, n-2), Kind: ShiftNodeRejoin, Node: spec.Nodes,
		})
	}
}

// ladderPass emits the scaling ladder: three rungs doubling from the
// spec's node count. Weak keeps per-core bytes constant; strong keeps
// the total constant (Trace.LadderBytesScale).
func ladderPass(s *rng.Stream, spec Spec, tr *Trace) {
	if spec.Scenario != WeakLadder && spec.Scenario != StrongLadder {
		return
	}
	tr.Ladder = []int{spec.Nodes, spec.Nodes * 2, spec.Nodes * 4}
}

// canonicalize sorts derived slices so the encoded trace does not
// depend on which pass appended first.
func (t *Trace) canonicalize() {
	sort.Slice(t.Shifts, func(i, j int) bool {
		a, b := t.Shifts[i], t.Shifts[j]
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
