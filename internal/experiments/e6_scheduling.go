package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
)

// runE6 reproduces §IV.D's scheduling claim and extends it across tree
// roots. Part one is the paper's single-backend sweep: coordinating the
// dedicated cores' writes ("a better I/O scheduling schema") raises
// aggregate throughput from 10 GB/s to 12.7 GB/s on Kraken. Part two is
// the cluster-wide extension (ROADMAP "cross-node scheduling"): N
// aggregation-tree roots × token policy × stripe layout, on both the
// DES face and the runtime cluster, showing that one shared
// storage.TokenBroker (iostrat.SchedClusterToken) beats per-backend
// tokens on aggregate write time and write-tail variability once roots
// contend for the same OSTs.
func runE6(p *Pass, rep *Report) error {
	if err := runE6Classic(p, rep); err != nil {
		return err
	}
	if err := runE6CrossRoots(p, rep); err != nil {
		return err
	}
	return runE6Runtime(rep)
}

// runE6Classic is the paper's single-backend policy sweep.
func runE6Classic(p *Pass, rep *Report) error {
	cores := p.opts.maxScale()
	table := stats.NewTable(
		fmt.Sprintf("Damaris throughput by scheduling policy at %d cores", cores),
		"scheduling", "throughput_GB_s", "io_window_s", "gain_vs_none")

	policies := []iostrat.Scheduling{iostrat.SchedNone, iostrat.SchedOSTToken, iostrat.SchedGlobalToken}
	results := make(map[iostrat.Scheduling]iostrat.Result, len(policies))
	for _, pol := range policies {
		cfg := p.opts.strategyConfig(cores)
		cfg.Scheduling = pol
		r, err := p.des(iostrat.Damaris, cfg)
		if err != nil {
			return err
		}
		results[pol] = r
	}
	base := results[iostrat.SchedNone].Throughput()
	var best float64
	for _, pol := range policies {
		tp := results[pol].Throughput()
		if tp > best {
			best = tp
		}
		gain := 0.0
		if base > 0 {
			gain = tp / base
		}
		table.AddRow(string(pol), stats.GB(tp), results[pol].IOWindow, gain)
	}
	rep.Tables = append(rep.Tables, table)
	// The paper's absolute numbers are Kraken's at 9216 cores: fewer
	// nodes cannot pressure its 336 OSTs, so scheduling is (correctly) a
	// no-op there and the bands MISS.
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "uncoordinated Damaris throughput",
			Paper:    "up to 10 GB/s (§IV.C)",
			Measured: stats.GB(base), Unit: "GB/s", Lo: 6.5, Hi: 13,
		},
		Check{
			Name:     "best scheduled throughput",
			Paper:    "up to 12.7 GB/s (§IV.D)",
			Measured: stats.GB(best), Unit: "GB/s", Lo: 9, Hi: 15,
		},
		Check{
			Name:     "scheduling gain over uncoordinated",
			Paper:    "further increase the throughput (§IV.D)",
			Measured: best / base, Unit: "x", Lo: 1.05, Hi: 1.8,
		},
	)
	return nil
}

// e6Layout names a root-stripe layout of the cross-root sweep.
type e6Layout struct {
	name string
	// stripes resolves the RootStripes override for the layout (0 keeps
	// the disjoint default).
	stripes func(targets, roots int) int
}

// e6OSTs sizes the cross-root sweep's OST array: few OSTs per root and
// ~24 nodes per OST, near Kraken's ~30, so the roots genuinely pressure
// the storage system while the *scheduled* write still fits the §IV.C
// spare window — a saturated array has no schedule to win.
func e6OSTs(nodes, roots int) int {
	t := nodes / 24
	if min := 4 * roots; t < min {
		t = min
	}
	return t
}

// e6Layouts are the stripe layouts swept: "disjoint" partitions the
// array perfectly between the roots; "overlapped" makes every root
// stripe almost the whole array from a distinct base, so the roots'
// windows nearly coincide while their base OSTs differ — the
// cross-application contention pattern (every writer wants the full
// OST array) that a base-target token cannot see and the cluster
// broker exists to absorb.
var e6Layouts = []e6Layout{
	{name: "disjoint", stripes: func(targets, roots int) int { return targets / roots }},
	{name: "overlapped", stripes: func(targets, roots int) int {
		s := targets - roots + 1
		if s < 2 {
			s = 2
		}
		return s
	}},
}

// e6CrossPolicies are the token policies compared across roots:
// per-backend base-target tokens versus the cluster-wide broker.
var e6CrossPolicies = []iostrat.Scheduling{
	iostrat.SchedNone, iostrat.SchedOSTToken, iostrat.SchedClusterToken,
}

// runE6CrossRoots is the DES face of the cross-root sweep.
func runE6CrossRoots(p *Pass, rep *Report) error {
	opts := p.opts
	cores := opts.maxScale()
	plat := opts.platformFor(cores)
	table := stats.NewTable(
		fmt.Sprintf("cross-root scheduling, %d nodes, fanout %d (DES)", plat.Nodes, treeFanout),
		"roots", "layout", "scheduling", "write_lat_s", "write_tail_sd_s",
		"sched_wait_s", "contended", "throughput_GB_s")

	type key struct {
		roots  int
		layout string
		pol    iostrat.Scheduling
	}
	results := map[key]iostrat.Result{}
	rootCounts := []int{2, 4}
	for _, roots := range rootCounts {
		if roots > plat.Nodes {
			continue
		}
		for _, layout := range e6Layouts {
			for _, pol := range e6CrossPolicies {
				cfg := opts.strategyConfig(cores)
				cfg.Fanout = treeFanout
				cfg.AggRoots = roots
				cfg.Scheduling = pol
				cfg.Platform.PFS.OSTs = e6OSTs(plat.Nodes, roots)
				cfg.RootStripes = layout.stripes(cfg.Platform.PFS.OSTs, roots)
				res, err := p.des(iostrat.Damaris, cfg)
				if err != nil {
					return err
				}
				results[key{roots, layout.name, pol}] = res
				table.AddRow(roots, layout.name, string(pol),
					stats.Mean(res.TreeWriteLatencies),
					res.WriteTailSpread(), res.SchedWaitTime, res.RootContention,
					stats.GB(res.Throughput()))
			}
		}
	}
	rep.Tables = append(rep.Tables, table)

	// The headline comparison: the most contended configuration —
	// maximum roots, overlapped windows.
	roots := rootCounts[len(rootCounts)-1]
	if roots > plat.Nodes {
		roots = rootCounts[0]
	}
	ost := results[key{roots, "overlapped", iostrat.SchedOSTToken}]
	clu := results[key{roots, "overlapped", iostrat.SchedClusterToken}]
	if stats.Mean(clu.TreeWriteLatencies) == 0 {
		// Nothing to compare: the machine is too small for any swept
		// root count (or no root ever wrote). Fail loudly instead of
		// reporting NaN checks.
		return fmt.Errorf("e6: cross-root sweep needs >= %d nodes (have %d)",
			rootCounts[0], plat.Nodes)
	}
	tailRatio := 0.0
	if clu.WriteTailSpread() > 0 {
		tailRatio = ost.WriteTailSpread() / clu.WriteTailSpread()
	}
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "DES cross-root write-time gain",
			Paper:    "cluster tokens beat per-backend tokens (write-latency ratio > 1)",
			Measured: stats.Mean(ost.TreeWriteLatencies) / stats.Mean(clu.TreeWriteLatencies),
			Unit:     "x", Lo: 1.05, Hi: 0,
		},
		Check{
			Name:     "DES cross-root tail-variability gain",
			Paper:    "deadline grants flatten the write tail (spread ratio > 1)",
			Measured: tailRatio, Unit: "x", Lo: 1.05, Hi: 0,
		},
		Check{
			Name:     "cluster tokens actually arbitrated",
			Paper:    "overlapped roots contend without coordination",
			Measured: float64(clu.RootContention), Unit: "grants", Lo: 1, Hi: 0,
		},
	)
	return nil
}

// pacedStore models the physical storage target behind a runtime
// cluster: each Put costs a fixed service time, and concurrent streams
// interfere — n overlapping streams degrade the target to
// 1/(1+alpha·(n-1)) of peak, so every stream's service inflates to
// n·(1+alpha·(n-1))×; at alpha 0 it is a plain write latency. The ledger
// (total applied service, per-iteration spans) is what the E6 runtime
// comparison reads. It deliberately does not implement storage.VecStore,
// so the cluster write path issues one flattened Put per object.
type pacedStore struct {
	inner   storage.ObjectStore
	service time.Duration
	alpha   float64

	mu        sync.Mutex
	active    int
	total     time.Duration
	iterStart map[int]time.Time
	iterEnd   map[int]time.Time
}

func newPacedStore(inner storage.ObjectStore, service time.Duration, alpha float64) *pacedStore {
	return &pacedStore{inner: inner, service: service, alpha: alpha,
		iterStart: map[int]time.Time{}, iterEnd: map[int]time.Time{}}
}

func (ps *pacedStore) Put(name string, data []byte) error {
	it, ok := cluster.ObjectIteration(name)
	if !ok {
		it = -1 // not a root object: outside every iteration's span
	}
	ps.mu.Lock()
	ps.active++
	n := float64(ps.active)
	// Interference inflates the service by n(1+alpha(n-1)) — the same
	// processor-sharing shape as the pfs model's OSTs.
	applied := time.Duration(float64(ps.service) * n * (1 + ps.alpha*(n-1)))
	ps.total += applied
	now := time.Now()
	if s, ok := ps.iterStart[it]; !ok || now.Before(s) {
		ps.iterStart[it] = now
	}
	ps.mu.Unlock()

	time.Sleep(applied)

	ps.mu.Lock()
	ps.active--
	end := time.Now()
	if e, ok := ps.iterEnd[it]; !ok || end.After(e) {
		ps.iterEnd[it] = end
	}
	ps.mu.Unlock()
	return ps.inner.Put(name, data)
}

// iterSpans returns the per-iteration wall spans (first Put start to
// last Put end), ascending by iteration.
func (ps *pacedStore) iterSpans(iters int) []float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	spans := make([]float64, 0, iters)
	for it := 0; it < iters; it++ {
		s, okS := ps.iterStart[it]
		e, okE := ps.iterEnd[it]
		if okS && okE {
			spans = append(spans, e.Sub(s).Seconds())
		}
	}
	return spans
}

// runE6Runtime compares per-backend tokens against the shared cluster
// broker on a real multi-root cluster writing through a paced store.
func runE6Runtime(rep *Report) error {
	const (
		rtNodes   = 4
		rtClients = 2
		rtIters   = 6
		rtRoots   = 2
		rtService = 12 * time.Millisecond
		rtAlpha   = 1.0
	)
	table := stats.NewTable(
		fmt.Sprintf("runtime cluster cross-root scheduling, %d nodes × %d clients, %d iterations",
			rtNodes, rtClients, rtIters),
		"scheduling", "write_service_ms", "iter_span_sd_ms", "token_wait_ms", "contended").
		Measured("write_service_ms", "iter_span_sd_ms", "token_wait_ms", "contended")

	type rtResult struct {
		service  time.Duration
		spans    []float64
		st       cluster.Stats
		contends int
	}
	run := func(shared bool) (rtResult, error) {
		// Both trees collide on one paced target, mirroring the DES
		// sweep's overlapped stripe windows.
		paced := newPacedStore(storage.NewMemory(nil, 1, 1e9), rtService, rtAlpha)
		// Per-backend tokens arbitrate each root against itself only —
		// the runtime mirror of iostrat.SchedOSTToken's per-stream base
		// token. A root stores one object at a time, so its private token
		// is never waited on and roots of different trees still hit the
		// paced target at once: no broker at all.
		var broker storage.TokenBroker
		if shared {
			broker = storage.NewBroker(storage.BrokerOptions{
				Policy:  storage.PolicyDeadline,
				Targets: 1,
			})
		}
		st, _, err := runtimeLeg{
			job: "e6", nodes: rtNodes, clients: rtClients, floats: 256, iters: rtIters,
			cc: cluster.ClusterConfig{
				Roots:  rtRoots,
				Store:  paced,
				Broker: broker,
			},
		}.run()
		if err != nil {
			return rtResult{}, err
		}
		contends := 0
		for _, n := range st.RootContention {
			contends += n
		}
		return rtResult{
			service:  paced.total,
			spans:    paced.iterSpans(rtIters),
			st:       st,
			contends: contends,
		}, nil
	}

	perRoot, err := run(false)
	if err != nil {
		return err
	}
	shared, err := run(true)
	if err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	table.AddRow("per-backend tokens", ms(perRoot.service),
		stats.StdDev(perRoot.spans)*1e3, perRoot.st.TokenWaitTime*1e3, perRoot.contends)
	table.AddRow("cluster token (shared broker)", ms(shared.service),
		stats.StdDev(shared.spans)*1e3, shared.st.TokenWaitTime*1e3, shared.contends)
	rep.Tables = append(rep.Tables, table)

	rep.Checks = append(rep.Checks,
		Check{
			Name:     "runtime cross-root write-time gain",
			Paper:    "shared broker avoids target interference (service ratio > 1)",
			Measured: float64(perRoot.service) / float64(shared.service),
			Unit:     "x", Lo: 1.05, Hi: 0, Timed: true,
		},
		Check{
			Name:     "runtime write-tail spread",
			Paper:    "serialized grants keep iteration spans steady (per-backend − cluster, ms)",
			Measured: (stats.StdDev(perRoot.spans) - stats.StdDev(shared.spans)) * 1e3,
			Unit:     "ms", Lo: -3, Hi: 0, Timed: true,
		},
		Check{
			Name:     "runtime cluster broker arbitrated",
			Paper:    "colliding roots queue on the shared token",
			Measured: float64(shared.contends), Unit: "grants", Lo: 1, Hi: 0, Timed: true,
		},
	)
	return nil
}
