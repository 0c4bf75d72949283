package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topology"
)

// runE9 measures multi-tenancy: N simulations sharing one machine, one
// token broker, and one object store through cluster.Service. The paper
// dedicates cores *within* one job; E9 asks what happens when several
// such jobs coexist — the dedicated cores become a cluster-wide
// resource that admission has to ration. Part one sweeps tenancy ×
// arrival rate × admission policy on the DES face (iostrat.RunService:
// thousands of queued jobs in virtual time) and carries the headline
// check: under oversubscription, deadline-aware admission (EDF, which
// degrades to shortest-job-first on a bimodal mix) beats FIFO on the
// p99 per-iteration write latency. Part two runs two real tenant
// clusters concurrently on one shared fair-share broker and checks the
// accounting: zero cross-tenant token leaks, per-tenant stats summing
// to the service rollup and to the broker's own grant total.
func runE9(p *Pass, rep *Report) error {
	if err := runE9DES(p.opts, rep); err != nil {
		return err
	}
	return runE9Runtime(rep)
}

// e9ServiceConfig builds one DES sweep point. The workload is the CM1
// shape with a shorter compute phase, so each job is short and the
// sweep pushes many of them through the machine; DeadlineSlack 3 prices deadlines loosely
// enough that EDF can actually meet the ones it prioritizes.
func e9ServiceConfig(opts Options, plat topology.Platform,
	jobs int, rate float64, pol cluster.AdmissionPolicy) iostrat.ServiceConfig {
	wl := iostrat.CM1Workload(opts.Iterations)
	wl.ComputeTime = 60
	return iostrat.ServiceConfig{
		Platform:      plat,
		Seed:          opts.Seed,
		Jobs:          jobs,
		ArrivalRate:   rate,
		Admission:     pol,
		DeadlineSlack: 3,
		Workload:      wl,
	}
}

// runE9DES is the DES face: the tenancy × arrival × admission sweep.
func runE9DES(opts Options, rep *Report) error {
	plat := opts.platformFor(opts.maxScale())
	tenancies := []int{12, 24}
	// Light load barely queues; heavy load oversubscribes the machine
	// several times over — the regime where admission ordering matters.
	rates := []float64{1.0 / 60, 1.0 / 20}
	policies := []cluster.AdmissionPolicy{
		cluster.AdmitFIFO, cluster.AdmitDeadline, cluster.AdmitReject, cluster.AdmitDegrade,
	}

	table := stats.NewTable(
		fmt.Sprintf("multi-tenant admission sweep, %d nodes (DES)", plat.Nodes),
		"tenants", "arrival_s", "admission", "p99_write_lat_s", "mean_write_lat_s",
		"admitted", "rejected", "degraded", "missed_deadlines", "max_queued")

	type key struct {
		jobs int
		rate float64
		pol  cluster.AdmissionPolicy
	}
	results := map[key]iostrat.ServiceResult{}
	for _, jobs := range tenancies {
		for _, rate := range rates {
			for _, pol := range policies {
				res, err := iostrat.RunService(e9ServiceConfig(opts, plat, jobs, rate, pol))
				if err != nil {
					return err
				}
				results[key{jobs, rate, pol}] = res
				table.AddRow(jobs, 1/rate, string(pol),
					res.P99WriteLatency(), res.MeanWriteLatency(),
					res.Admitted, res.Rejected, res.Degraded,
					res.DeadlinesMissed, res.MaxQueued)
			}
		}
	}
	rep.Tables = append(rep.Tables, table)

	// Checks read the most oversubscribed point: full tenancy, heaviest
	// arrival rate.
	jobs, rate := tenancies[len(tenancies)-1], rates[len(rates)-1]
	fifo := results[key{jobs, rate, cluster.AdmitFIFO}]
	edf := results[key{jobs, rate, cluster.AdmitDeadline}]
	rej := results[key{jobs, rate, cluster.AdmitReject}]
	deg := results[key{jobs, rate, cluster.AdmitDegrade}]
	if edf.P99WriteLatency() <= 0 {
		return fmt.Errorf("e9: deadline run has no positive write-latency tail — not oversubscribed")
	}
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "DES deadline-admission p99 gain over FIFO",
			Paper:    "EDF flattens the write-latency tail (p99 ratio > 1)",
			Measured: fifo.P99WriteLatency() / edf.P99WriteLatency(),
			Unit:     "x", Lo: 1.02, Hi: 0,
		},
		Check{
			Name:     "DES deadline-admission mean gain over FIFO",
			Paper:    "short jobs stop convoying behind wide ones",
			Measured: fifo.MeanWriteLatency() / edf.MeanWriteLatency(),
			Unit:     "x", Lo: 1.15, Hi: 0,
		},
		Check{
			Name:     "deadline admission misses no more deadlines",
			Paper:    "EDF meets the deadlines it prioritizes (FIFO − EDF misses)",
			Measured: float64(fifo.DeadlinesMissed - edf.DeadlinesMissed),
			Unit:     "jobs", Lo: 0, Hi: 0,
		},
		Check{
			Name:     "FIFO queue depth under oversubscription",
			Paper:    "arrivals outrun the machine",
			Measured: float64(fifo.MaxQueued), Unit: "jobs", Lo: 1, Hi: 0,
		},
		Check{
			Name:     "reject policy sheds load",
			Paper:    "refusing what does not fit keeps the rest on time",
			Measured: float64(rej.Rejected), Unit: "jobs", Lo: 1, Hi: 0,
		},
		Check{
			Name:     "degrade policy shrinks jobs",
			Paper:    "the skip policy applied to admission: run smaller, not later",
			Measured: float64(deg.Degraded), Unit: "jobs", Lo: 1, Hi: 0,
		},
	)
	return nil
}

// runE9Runtime is the runtime face: two real tenant clusters on one
// shared broker, checking the token accounting closes.
func runE9Runtime(rep *Report) error {
	const (
		rtNodes   = 4
		rtClients = 2
		rtRoots   = 2
		rtIters   = 3
	)
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyFairShare,
		Targets: 2, // both tenants' root windows collide on the same targets
	})
	store := storage.NewMemory(nil, rtRoots, 1e9)
	svc, err := cluster.NewService(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "e9", Nodes: rtNodes, CoresPerNode: rtClients + 1},
		Roots:    rtRoots,
		Store:    store,
		Broker:   broker,
	}, cluster.ServiceOptions{Admission: cluster.AdmitDeadline})
	if err != nil {
		return err
	}

	names := []string{"alpha", "beta"}
	tenants := make([]*cluster.Tenant, len(names))
	for i, name := range names {
		mc, err := runtimeMeta("e9", 64)
		if err != nil {
			return err
		}
		tn, err := svc.Submit(cluster.RunSpec{
			Meta:    mc,
			JobName: name,
			Quota:   cluster.Quota{Nodes: rtNodes / len(names)},
			Weight:  float64(i + 1),
		})
		if err != nil {
			return err
		}
		tenants[i] = tn
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(tenants))
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *cluster.Tenant) {
			defer wg.Done()
			// Finish on every path: it is what shuts a failed run's
			// cluster down.
			err := driveE9Tenant(tn, rtIters)
			if ferr := tn.Finish(); err == nil && ferr != nil {
				err = fmt.Errorf("tenant %d finish: %w", tn.ID(), ferr)
			}
			if err != nil {
				errs <- err
			}
		}(tn)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}

	ss := svc.Stats()
	table := stats.NewTable(
		fmt.Sprintf("runtime tenants on one shared broker, %d nodes × %d clients, %d iterations",
			rtNodes, rtClients, rtIters),
		"tenant", "nodes", "token_grants", "objects_written", "token_wait_s").Measured("token_wait_s")
	sumGrants := 0
	for i, tn := range tenants {
		st := ss.PerTenant[tn.ID()]
		sumGrants += st.TokenGrants
		table.AddRow(names[i], tn.Nodes(), st.TokenGrants, st.ObjectsWritten, st.TokenWaitTime)
	}
	rep.Tables = append(rep.Tables, table)

	grantRatio := 0.0
	if bs := broker.Stats(); bs.Grants > 0 {
		grantRatio = float64(ss.Total.TokenGrants) / float64(bs.Grants)
	}
	rep.Checks = append(rep.Checks,
		Check{
			Name:     "runtime tokens outstanding after teardown",
			Paper:    "every cross-tenant grant is reclaimed",
			Measured: float64(broker.Outstanding()), Unit: "tokens", Lo: -0.5, Hi: 0.5,
		},
		Check{
			Name:     "per-tenant grants account the broker total",
			Paper:    "holder-tagged stats carve the shared broker exactly",
			Measured: grantRatio, Unit: "x", Lo: 0.999, Hi: 1.001,
		},
		Check{
			Name:     "tenant namespaces in the shared store",
			Paper:    "JobName prefixes keep tenants' objects disjoint",
			Measured: float64(e9Namespaces(store)), Unit: "prefixes", Lo: 2, Hi: 2.5,
		},
	)
	if ss.Total.TokenGrants != sumGrants {
		return fmt.Errorf("e9: Total.TokenGrants %d != per-tenant sum %d",
			ss.Total.TokenGrants, sumGrants)
	}
	return nil
}

// driveE9Tenant pushes iters iterations through every client of a
// tenant's cluster.
func driveE9Tenant(tn *cluster.Tenant, iters int) error {
	c := tn.Cluster()
	if c == nil {
		return fmt.Errorf("tenant %d has no cluster (state %s)", tn.ID(), tn.State())
	}
	if err := cluster.Drive(c, cluster.Workload{Variable: "theta", To: iters, Payload: rampPayload(64)}); err != nil {
		return fmt.Errorf("tenant %d: %w", tn.ID(), err)
	}
	return nil
}

// e9Namespaces counts distinct JobName prefixes in the shared store.
func e9Namespaces(store *storage.Memory) int {
	seen := map[string]bool{}
	names, _ := store.List("") // a Memory listing cannot fail
	for _, n := range names {
		if i := strings.IndexByte(n, '-'); i > 0 {
			seen[n[:i]] = true
		}
	}
	return len(seen)
}
