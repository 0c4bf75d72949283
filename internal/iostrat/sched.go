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

// writeScheduler coordinates dedicated-core writes (E6). acquire runs k
// with the matching release once the write may start: inline when it
// may start at once, otherwise in the event that grants it.
type writeScheduler interface {
	acquire(w writeReq, k func(release func()))
	// releaseHolder frees every token a dead node holds or waits for.
	releaseHolder(node int)
	// brokerStats exposes the contention ledger (zero for SchedNone).
	brokerStats() storage.BrokerStats
}

type nopScheduler struct{}

func (nopScheduler) acquire(_ writeReq, k func(func())) { k(func() {}) }
func (nopScheduler) releaseHolder(int)                  {}
func (nopScheduler) brokerStats() storage.BrokerStats   { return storage.BrokerStats{} }

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
	window bool
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
		broker: storage.NewBroker(opts),
		window: pol == SchedClusterToken,
	}
}

func (s *brokerScheduler) acquire(w writeReq, k func(release func())) {
	req := storage.TokenRequest{
		Holder:   w.holder,
		Deadline: w.deadline,
		Bytes:    w.bytes,
	}
	if s.window && w.stripes > 1 {
		req.Targets = make([]int, w.stripes)
		for i := range req.Targets {
			req.Targets[i] = w.base + i
		}
	} else {
		req.Targets = []int{w.base}
	}
	// A grant denied because the node died while parked on the queue
	// holds no token, and its Release does nothing.
	s.broker.AcquireSim(req, func(g storage.TokenGrant) { k(g.Release) })
}

func (s *brokerScheduler) releaseHolder(node int) { s.broker.ReleaseHolder(node) }

func (s *brokerScheduler) brokerStats() storage.BrokerStats { return s.broker.Stats() }
