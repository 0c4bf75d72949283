package iostrat

import (
	"repro/internal/des"
	"repro/internal/storage"
)

// writeReq describes one dedicated-core file stream about to start: who
// writes, which backend targets the stream touches, and by when the
// §IV.C spare-time schedule would like it done.
type writeReq struct {
	// holder is the writing node id — the token owner the broker frees
	// if the node dies.
	holder int
	// base is the first backend target; the stream touches stripes
	// consecutive targets from it (1 for unstriped files).
	base    int
	stripes int
	// deadline is the virtual time the next output phase is expected to
	// start: the write should finish inside the spare window, and under
	// SchedClusterToken the nearest deadline is granted first.
	deadline float64
	// bytes is the stream's payload, for accounting.
	bytes float64
}

// writeScheduler coordinates dedicated-core writes (E6). acquire sets *g
// to the grant, which the writer releases once written, and runs
// k(actor) once the write may start: inline when it may start at once,
// otherwise in the event that grants it. k and g are the same on every
// acquire of one actor (its step and its grant).
type writeScheduler interface {
	acquire(w writeReq, g *storage.TokenGrant, k func(int32), actor int32)
	// releaseHolder frees every token a dead node holds or waits for.
	releaseHolder(node int)
	// brokerStats exposes the contention ledger (zero for SchedNone).
	brokerStats() storage.BrokerStats
}

type nopScheduler struct{}

func (nopScheduler) acquire(_ writeReq, _ *storage.TokenGrant, k func(int32), a int32) { k(a) }
func (nopScheduler) releaseHolder(int)                                                 {}
func (nopScheduler) brokerStats() storage.BrokerStats                                  { return storage.BrokerStats{} }

// brokerScheduler adapts the cluster-wide storage.TokenBroker to the
// strategy write paths. All tree roots of a run share the one broker,
// which is what makes the schedule cluster-wide.
//
//   - SchedOSTToken: a token on the stream's base target only (the
//     per-backend legacy — striped writes still spill onto neighbours).
//   - SchedGlobalToken: one bounded concurrency slot per stream.
//   - SchedClusterToken: the whole stripe window, granted atomically,
//     earliest iteration deadline first.
type brokerScheduler struct {
	broker *storage.Broker
	// window acquires the full stripe window instead of the base target
	// (SchedClusterToken).
	window  bool
	targets []int                              // a request's, which the broker copies
	granted map[int32]func(storage.TokenGrant) // per actor, bound at its first acquire
}

// newScheduler builds the write scheduler for a run, binding the broker
// to the run's engine and target space. SchedNone coordinates nothing.
func newScheduler(eng *des.Engine, pol Scheduling, targets int) writeScheduler {
	opts := storage.BrokerOptions{Targets: targets, Engine: eng}
	switch pol {
	case SchedOSTToken:
		opts.Policy = storage.PolicyPerTarget
	case SchedGlobalToken:
		opts.Policy = storage.PolicyGlobal
	case SchedClusterToken:
		opts.Policy = storage.PolicyDeadline
	default:
		return nopScheduler{}
	}
	return &brokerScheduler{
		broker:  storage.NewBroker(opts),
		window:  pol == SchedClusterToken,
		granted: map[int32]func(storage.TokenGrant){},
	}
}

func (s *brokerScheduler) acquire(w writeReq, g *storage.TokenGrant, k func(int32), actor int32) {
	s.targets = append(s.targets[:0], w.base)
	for i := 1; s.window && i < w.stripes; i++ {
		s.targets = append(s.targets, w.base+i)
	}
	// A grant denied because the node died while parked on the queue
	// holds no token, and its Release does nothing.
	if s.granted[actor] == nil {
		s.granted[actor] = func(gr storage.TokenGrant) { *g = gr; k(actor) }
	}
	s.broker.AcquireSim(storage.TokenRequest{Holder: w.holder, Targets: s.targets, Deadline: w.deadline, Bytes: w.bytes},
		s.granted[actor])
}

func (s *brokerScheduler) releaseHolder(node int) { s.broker.ReleaseHolder(node) }

func (s *brokerScheduler) brokerStats() storage.BrokerStats { return s.broker.Stats() }
