package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rng"
	"repro/internal/workload"
)

// FailureSchedule declares which nodes die and when: node id × first
// iteration the node no longer serves. A node with entry (d, k)
// processes iterations < k normally and is killed the moment its
// dedicated core sees iteration k (its own iteration-k blocks are the
// "mid-iteration" loss). A nil or empty schedule injects nothing.
type FailureSchedule struct {
	at map[int]int
}

// NewFailureSchedule returns an empty schedule.
func NewFailureSchedule() *FailureSchedule {
	return &FailureSchedule{at: map[int]int{}}
}

// Add schedules node to die at iteration (clamped to 0) and returns the
// schedule for chaining. Adding a node twice keeps the earlier death.
func (s *FailureSchedule) Add(node, iteration int) *FailureSchedule {
	if iteration < 0 {
		iteration = 0
	}
	if s.at == nil {
		s.at = map[int]int{}
	}
	if prev, ok := s.at[node]; !ok || iteration < prev {
		s.at[node] = iteration
	}
	return s
}

// WithTrace returns the schedule a scenario runs under on either face:
// s plus the trace's node-loss events; on a node listed twice the
// earliest death wins, as always. s is left unmodified and returned
// as is when the trace (nil included) loses no node. Safe on nil.
func (s *FailureSchedule) WithTrace(tr *workload.Trace) *FailureSchedule {
	if tr == nil || len(tr.NodeLosses()) == 0 {
		return s
	}
	merged := NewFailureSchedule()
	for _, n := range s.Nodes() {
		k, _ := s.At(n)
		merged.Add(n, k)
	}
	for _, l := range tr.NodeLosses() {
		merged.Add(l.Node, l.Iteration)
	}
	return merged
}

// At returns the death iteration of node, ok=false when the node never
// dies. Safe on a nil schedule.
func (s *FailureSchedule) At(node int) (iteration int, ok bool) {
	if s == nil {
		return 0, false
	}
	iteration, ok = s.at[node]
	return iteration, ok
}

// Len returns the number of scheduled deaths. Safe on a nil schedule.
func (s *FailureSchedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.at)
}

// Empty reports whether the schedule injects nothing. Safe on nil.
func (s *FailureSchedule) Empty() bool { return s.Len() == 0 }

// Nodes returns the scheduled node ids, ascending. Safe on nil.
func (s *FailureSchedule) Nodes() []int {
	if s == nil {
		return nil
	}
	nodes := make([]int, 0, len(s.at))
	for n := range s.at {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// String renders the schedule as "node@iter" pairs, ascending by node.
func (s *FailureSchedule) String() string {
	if s.Empty() {
		return "none"
	}
	parts := make([]string, 0, s.Len())
	for _, n := range s.Nodes() {
		it, _ := s.At(n)
		parts = append(parts, fmt.Sprintf("%d@%d", n, it))
	}
	return strings.Join(parts, ",")
}

// RandomFailures builds a schedule from a seeded random process: each
// of the n nodes dies independently with probability rate, at an
// iteration drawn uniformly from [0, iterations). The same (n,
// iterations, rate, seed) always produces the same schedule, so sweeps
// over failure rates are reproducible.
func RandomFailures(n, iterations int, rate float64, seed uint64) *FailureSchedule {
	s := NewFailureSchedule()
	if n <= 0 || iterations <= 0 || rate <= 0 {
		return s
	}
	r := rng.New(seed, 0xFA17)
	for node := 0; node < n; node++ {
		if r.Float64() < rate {
			s.Add(node, r.Intn(iterations))
		}
	}
	return s
}
