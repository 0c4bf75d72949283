package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

// runtimeMetaXML is the one per-node configuration every runtime-face
// leg runs: a 1 MiB segment and one float64 row per client, "theta".
const runtimeMetaXML = `<simulation name="%s">
  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
  <data>
    <parameter name="n" value="%d"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

// runtimeMeta parses the shared configuration for a job (the prefix of
// its stored objects) writing floats-element rows.
func runtimeMeta(job string, floats int) (*meta.Config, error) {
	return meta.ParseString(fmt.Sprintf(runtimeMetaXML, job, floats))
}

// rampPayload hands every client the same fixed byte ramp of floats
// elements (Write copies it, so sharing it is safe).
func rampPayload(floats int) func(node, source, it int) []byte {
	ramp := make([]byte, floats*8)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	return func(int, int, int) []byte { return ramp }
}

// runtimeLeg is one runtime-face run of an experiment: a real cluster of
// nodes × clients built on the shared configuration and driven through
// cluster.Drive.
type runtimeLeg struct {
	job            string
	nodes, clients int
	floats, iters  int
	// cc carries Fanout, Roots, Store and Broker; the platform is
	// derived from nodes × clients.
	cc cluster.ClusterConfig
	// spec carries Failures, Hooks and Retain; Meta is derived from job
	// and floats.
	spec cluster.RunSpec
	// payload defaults to rampPayload(floats).
	payload func(node, source, it int) []byte
	// each, when non-nil, runs after every stored iteration, in lockstep
	// (cluster.Workload.EachIteration).
	each func(c *cluster.Cluster, it int) error
}

// run builds the cluster, drives the workload, shuts the cluster down on
// every path and returns its final stats together with the wall time
// from the first write to the last iteration stored — the interval every
// runtime leg's wall-clock column reports. The objects stay behind in
// cc.Store for the caller's restore or verify pass.
func (l runtimeLeg) run() (cluster.Stats, time.Duration, error) {
	mc, err := runtimeMeta(l.job, l.floats)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	l.cc.Platform = topology.Platform{Name: l.job, Nodes: l.nodes, CoresPerNode: l.clients + 1}
	l.spec.Meta = mc
	c, err := cluster.New(l.cc, l.spec)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	w := cluster.Workload{Variable: "theta", To: l.iters, Payload: l.payload}
	if w.Payload == nil {
		w.Payload = rampPayload(l.floats)
	}
	if l.each != nil {
		w.EachIteration = func(it int) error { return l.each(c, it) }
	}
	start := time.Now()
	err = cluster.Drive(c, w)
	wall := time.Since(start)
	if serr := c.Shutdown(); err == nil {
		err = serr
	}
	return c.Stats(), wall, err
}

// restoreClean is the restore pass after a runtime leg: it reads job's
// objects back from store, timed, and treats any per-object problem as
// the leg's failure.
func restoreClean(store storage.ObjectReader, job string) (*cluster.Restored, time.Duration, error) {
	t0 := time.Now()
	r, err := cluster.Restore(store, job)
	wall := time.Since(t0)
	if err == nil && len(r.Problems) > 0 {
		err = fmt.Errorf("%s: restore problems: %v", job, r.Problems)
	}
	return r, wall, err
}

// spreadFailures schedules round(rate × nodes) deaths at iteration at,
// spread over the tree and skipping node 0 so that at least one original
// root survives every rate.
func spreadFailures(nodes int, rate float64, at int) *cluster.FailureSchedule {
	sched := cluster.NewFailureSchedule()
	for k := 0; k < int(rate*float64(nodes)+0.5); k++ {
		sched.Add(1+(k*3)%(nodes-1), at)
	}
	return sched
}

// consumeStream runs cluster.ConsumeStream over sub on its own
// goroutine, handing every decoded frame to onFrame. The returned wait
// blocks until that goroutine has exited and reports what stopped it,
// if not the stream's end.
func consumeStream(sub *storage.Subscription, onFrame func(b *cluster.Batch)) (wait func() error) {
	done := make(chan error, 1)
	go func() {
		done <- cluster.ConsumeStream(sub, func(_ storage.StreamMsg, b *cluster.Batch) error {
			onFrame(b)
			return nil
		})
	}()
	return func() error { return <-done }
}
