// This file is the multi-tenant service model: the DES face of
// cluster.Service. Where the runtime face hosts a handful of real
// tenant clusters, this model prices thousands of queued jobs cheaply —
// one small state machine per job, a node-counting admission gate in
// front of the machine, and a shared deadline broker arbitrating the
// write phases — so E9 can sweep tenancy × arrival rate × admission
// policy in virtual time.

package iostrat

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topology"
)

// ServiceConfig parameterizes one multi-tenant DES run.
type ServiceConfig struct {
	// Platform is the shared machine; Platform.Nodes is the admission
	// capacity in nodes (one dedicated core each).
	Platform topology.Platform
	// Seed drives every random stream of the run.
	Seed uint64
	// Jobs is the number of tenant jobs submitted.
	Jobs int
	// ArrivalRate is the mean job arrival rate in jobs per second
	// (Poisson). 0 submits every job at t=0.
	ArrivalRate float64
	// Admission is the oversubscription policy, shared with the runtime
	// face (cluster.AdmitFIFO, AdmitDeadline, AdmitReject,
	// AdmitDegrade).
	Admission cluster.AdmissionPolicy
	// NodesPerJob is each job's node ask (default max(1, Nodes/4)).
	NodesPerJob int
	// Workload is the per-job base workload; big jobs scale its
	// iteration count.
	Workload Workload
	// DeadlineSlack sets each job's completion deadline to
	// arrival + slack × its ideal (unqueued) runtime (default 1.5).
	// Under AdmitDeadline, shorter jobs therefore carry earlier
	// deadlines and go first — EDF degrades to shortest-job-first on
	// this mix, which is exactly what flattens the tail.
	DeadlineSlack float64
}

// bigJobFraction of jobs are "big": bigJobFactor× the base iterations
// AND bigJobFactor× the node ask (clamped to the machine). The bimodal
// mix is what makes admission ordering matter — under FIFO a wide job at
// the head convoys everything behind it.
const (
	bigJobFraction = 0.25
	bigJobFactor   = 4
)

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.NodesPerJob <= 0 {
		c.NodesPerJob = c.Platform.Nodes / 4
		if c.NodesPerJob < 1 {
			c.NodesPerJob = 1
		}
	}
	if c.Admission == "" {
		c.Admission = cluster.AdmitFIFO
	}
	if c.DeadlineSlack <= 0 {
		c.DeadlineSlack = 1.5
	}
	return c
}

// JobResult is one tenant job's measurements.
type JobResult struct {
	ID      int
	Arrival float64
	// AdmitTime is when the job got its nodes (== Arrival when it never
	// queued); meaningless when Rejected.
	AdmitTime float64
	// NodesAsked and Nodes are the quota and the actual grant (they
	// differ only under AdmitDegrade).
	NodesAsked int
	Nodes      int
	Rejected   bool
	Degraded   bool
	Iterations int
	Deadline   float64
	Finish     float64
	// Bytes reached storage; LostBytes is what degradation shed (the
	// nodes the job did not get still would have produced output).
	Bytes     float64
	LostBytes float64
	// WriteLatencies has one entry per iteration: the write's
	// completion time minus its ideal (admitted-at-arrival, unqueued)
	// completion time — admission wait, broker wait, and bandwidth
	// sharing all land here.
	WriteLatencies []float64
}

// MissedDeadline reports whether the job finished past its deadline.
func (j JobResult) MissedDeadline() bool {
	return !j.Rejected && j.Finish > j.Deadline
}

// ServiceResult aggregates one multi-tenant DES run.
type ServiceResult struct {
	Config    ServiceConfig
	Jobs      []JobResult
	Admitted  int
	Rejected  int
	Degraded  int
	MaxQueued int
	// TotalTime is when the last job finished.
	TotalTime float64
	// TokenWaitTime is the virtual time jobs spent queued on the shared
	// write broker (contention between already-admitted tenants).
	TokenWaitTime float64
	// AdmissionWaitTime is the virtual time jobs spent queued for
	// nodes.
	AdmissionWaitTime float64
	// DeadlinesMissed counts jobs finishing past their deadline.
	DeadlinesMissed int
}

// writeLatencies returns every per-iteration write latency, sorted.
func (r ServiceResult) writeLatencies() []float64 {
	var all []float64
	for _, j := range r.Jobs {
		all = append(all, j.WriteLatencies...)
	}
	sort.Float64s(all)
	return all
}

// P99WriteLatency returns the 99th percentile of per-iteration write
// latency across every admitted job — E9's headline tail metric.
func (r ServiceResult) P99WriteLatency() float64 {
	return stats.Percentile(r.writeLatencies(), 99)
}

// MeanWriteLatency returns the mean per-iteration write latency.
func (r ServiceResult) MeanWriteLatency() float64 {
	return stats.Mean(r.writeLatencies())
}

// desJob is one job's in-flight state.
type desJob struct {
	res     JobResult
	granted int
	fut     *des.Future // parked on the admission gate
}

// RunService executes the multi-tenant DES model and returns its
// measurements.
func RunService(cfg ServiceConfig) (ServiceResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Platform.Nodes <= 0 {
		return ServiceResult{}, fmt.Errorf("iostrat: platform has %d nodes", cfg.Platform.Nodes)
	}
	if cfg.Jobs <= 0 {
		return ServiceResult{}, fmt.Errorf("iostrat: %d jobs", cfg.Jobs)
	}
	if err := cluster.ValidateAdmissionPolicy(cfg.Admission); err != nil {
		return ServiceResult{}, err
	}
	if cfg.Workload.Iterations <= 0 || cfg.Workload.ComputeTime <= 0 {
		return ServiceResult{}, fmt.Errorf("iostrat: service workload needs iterations and compute time")
	}

	eng := des.NewEngine()
	root := rng.New(cfg.Seed, 0).Named("service")
	arrivals := root.Named("arrivals")
	mix := root.Named("mix")

	// The shared write broker: writeSlots stripe windows — how many jobs
	// the PFS serves at full stripe speed concurrently, more writers queue
	// — with deadline arbitration among admitted tenants (the E6 result,
	// applied cross-tenant). Holder = tenant id — one lightweight writer
	// each.
	writeSlots := max(2, cfg.Platform.PFS.OSTs/64)
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyDeadline,
		Targets: writeSlots,
		Engine:  eng,
	})

	// Per-writer bandwidth when every slot is busy: the OST array's
	// sequential capacity divided by the concurrent slots.
	perWriterBW := cfg.Platform.PFS.OSTBandwidth * float64(cfg.Platform.PFS.OSTs) /
		float64(writeSlots)
	if perWriterBW <= 0 {
		return ServiceResult{}, fmt.Errorf("iostrat: platform has no PFS bandwidth")
	}

	// The admission gate is the one the runtime Service drives; the engine
	// is single-threaded, so no locking — everything runs in event order.
	gate := cluster.NewAdmission(cfg.Admission, cfg.Platform.Nodes)
	jobs := make([]*desJob, cfg.Jobs)
	nodeBytes := cfg.Workload.NodeBytes(cfg.Platform.CoresPerNode)

	// run is one admitted (or rejected) job from its grant on: per
	// iteration, compute, take a write slot from the broker and write.
	run := func(j *desJob, jitter *rng.Stream, granted int) {
		if granted == 0 {
			j.res.Rejected = true
			return
		}
		j.res.AdmitTime = eng.Now()
		j.res.Nodes = granted
		j.res.Degraded = granted < j.res.NodesAsked
		jobBytes := nodeBytes * float64(granted)
		j.res.LostBytes = nodeBytes * float64(j.res.NodesAsked-granted) * float64(j.res.Iterations)
		idealWrite := nodeBytes * float64(j.res.NodesAsked) / perWriterBW
		var iterate func(it int)
		iterate = func(it int) {
			if it == j.res.Iterations {
				j.res.Finish = eng.Now()
				for _, a := range gate.Release(granted) {
					jobs[a.ID].granted = a.Nodes
					jobs[a.ID].fut.Complete()
				}
				return
			}
			eng.Wait(cfg.Workload.ComputeTime*jitter.UnitLogNormal(cfg.Workload.ComputeJitter), func() {
				broker.AcquireSim(storage.TokenRequest{
					Holder:   j.res.ID,
					Tenant:   j.res.ID,
					Targets:  []int{j.res.ID % writeSlots},
					Deadline: j.res.Deadline,
					Bytes:    jobBytes,
				}, func(g storage.TokenGrant) {
					eng.Wait(jobBytes/perWriterBW*
						jitter.UnitLogNormal(cfg.Platform.PFS.JitterSigma), func() {
						g.Release()
						j.res.Bytes += jobBytes
						// Latency against the job's ideal schedule:
						// admitted at arrival, never queued, full grant.
						// Admission and broker waits both surface here —
						// the tail E9 compares.
						idealDone := j.res.Arrival +
							float64(it+1)*(cfg.Workload.ComputeTime+idealWrite)
						j.res.WriteLatencies = append(j.res.WriteLatencies, eng.Now()-idealDone)
						iterate(it + 1)
					})
				})
			})
		}
		iterate(0)
	}

	at := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		if i > 0 && cfg.ArrivalRate > 0 {
			at += arrivals.Exponential(1 / cfg.ArrivalRate)
		}
		iters := cfg.Workload.Iterations
		need := cfg.NodesPerJob
		if mix.Float64() < bigJobFraction {
			iters *= bigJobFactor
			need *= bigJobFactor
		}
		if need > cfg.Platform.Nodes {
			need = cfg.Platform.Nodes
		}
		// Ideal (unqueued, full-grant) runtime prices the deadline.
		idealWrite := nodeBytes * float64(need) / perWriterBW
		ideal := float64(iters) * (cfg.Workload.ComputeTime + idealWrite)
		j := &desJob{
			res: JobResult{
				ID:         i,
				Arrival:    at,
				NodesAsked: need,
				Iterations: iters,
				Deadline:   at + cfg.DeadlineSlack*ideal,
			},
		}
		jobs[i] = j

		jitter := root.Child(uint64(i))
		eng.At(at, func() {
			granted, queued := gate.Offer(cluster.Ask{ID: j.res.ID, Nodes: j.res.NodesAsked,
				Deadline: j.res.Deadline})
			if !queued {
				run(j, jitter, granted)
				return
			}
			j.fut = eng.NewFuture()
			j.fut.Then(func() { run(j, jitter, j.granted) })
		})
	}
	eng.Run()

	out := ServiceResult{Config: cfg, MaxQueued: gate.MaxQueued()}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.res)
		switch {
		case j.res.Rejected:
			out.Rejected++
		default:
			out.Admitted++
			if j.res.Degraded {
				out.Degraded++
			}
			out.AdmissionWaitTime += j.res.AdmitTime - j.res.Arrival
			if j.res.Finish > out.TotalTime {
				out.TotalTime = j.res.Finish
			}
			if j.res.MissedDeadline() {
				out.DeadlinesMissed++
			}
		}
	}
	out.TokenWaitTime = broker.Stats().WaitTime
	return out, nil
}
