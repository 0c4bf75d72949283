package cluster_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// ExampleNew wires eight nodes into a binary aggregation tree. Each
// iteration the leaves' dedicated cores forward their node's blocks
// upward, interior nodes batch their subtree, and the root runs its
// hooks on the merged batch before storing it as one object.
func ExampleNew() {
	c := must(cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: 8, CoresPerNode: 4}, // 3 clients + 1 dedicated core
		Fanout:   2,
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, cluster.RunSpec{
		Meta: exampleConfig("tree"),
		Hooks: []cluster.Hook{cluster.HookFunc{HookName: "report", Fn: func(it int, b *cluster.Batch) error {
			fmt.Printf("iteration %d at the root: %d blocks, %d bytes\n", it, len(b.Blocks), b.Bytes())
			return nil
		}}},
	}))
	check(cluster.Drive(c, cluster.Workload{Variable: "theta", To: 3, Payload: exampleField}))
	check(c.Shutdown())
	st := c.Stats()
	fmt.Printf("tree depth %d: %d batches forwarded, %d objects stored\n",
		c.Tree().Depth(), st.BatchesForwarded, st.ObjectsWritten)
	// Output:
	// iteration 0 at the root: 24 blocks, 24576 bytes
	// iteration 1 at the root: 24 blocks, 24576 bytes
	// iteration 2 at the root: 24 blocks, 24576 bytes
	// tree depth 4: 21 batches forwarded, 3 objects stored
}

// ExampleFailureSchedule kills interior node 1 of a nine-node binary
// tree at iteration 2. Its children re-route to the root, only the dead
// node's own blocks go missing, and the run finishes. Driving the
// clients in lockstep makes the death land at the same point every run.
func ExampleFailureSchedule() {
	c := must(cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: 9, CoresPerNode: 3},
		Fanout:   2,
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, cluster.RunSpec{
		Meta:     exampleConfig("failure"),
		Failures: cluster.NewFailureSchedule().Add(1, 2),
	}))
	check(cluster.Drive(c, cluster.Workload{Variable: "theta", To: 4, Payload: exampleField,
		EachIteration: func(it int) error {
			fmt.Printf("iteration %d: %.0f%% of the cluster stored\n", it, 100*c.Stats().Completeness[it])
			return nil
		}}))
	check(c.Shutdown())
	st := c.Stats()
	fmt.Printf("%d node failed, %d edges re-routed, %d blocks lost, roots %v\n",
		st.NodesFailed, st.ReroutedEdges, st.BlocksLost, c.Tree().Roots())
	// Output:
	// iteration 0: 100% of the cluster stored
	// iteration 1: 100% of the cluster stored
	// iteration 2: 89% of the cluster stored
	// iteration 3: 89% of the cluster stored
	// 1 node failed, 2 edges re-routed, 4 blocks lost, roots [0]
}

// ExampleService hosts three jobs on one four-node machine with a shared
// fair-share broker and store. Two jobs fit side by side and the third
// queues; evicting one returns its nodes and tokens, and the queued job
// starts. Only facts that do not depend on which job finishes first are
// printed.
func ExampleService() {
	broker := storage.NewBroker(storage.BrokerOptions{Policy: storage.PolicyFairShare, Targets: 2})
	svc := must(cluster.NewService(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: 4, CoresPerNode: 3},
		Store:    storage.NewMemory(nil, 2, 1e9),
		Broker:   broker,
	}, cluster.ServiceOptions{Admission: cluster.AdmitDeadline}))
	names := []string{"alpha", "beta", "gamma"}
	var tenants []*cluster.Tenant
	for _, name := range names {
		tn := must(svc.Submit(cluster.RunSpec{Meta: exampleConfig(name), JobName: name, Quota: cluster.Quota{Nodes: 2}}))
		fmt.Printf("submit %s: %s\n", name, tn.State())
		tenants = append(tenants, tn)
	}
	alpha, beta, gamma := tenants[0], tenants[1], tenants[2]
	run := func(tn *cluster.Tenant) error {
		return cluster.Drive(tn.Cluster(), cluster.Workload{Variable: "theta", To: 3, Payload: exampleField})
	}
	done := make(chan error)
	go func() { done <- run(alpha) }()
	check(run(beta))
	check(<-done)

	check(beta.Evict())
	check(gamma.Wait())
	fmt.Printf("evict beta: gamma %s on %d nodes\n", gamma.State(), gamma.Nodes())
	check(run(gamma))
	check(gamma.Finish())
	check(alpha.Finish())
	ss := svc.Stats()
	for i, tn := range tenants {
		st := ss.PerTenant[tn.ID()]
		fmt.Printf("%s %s: %d iterations, %d objects, %d token grants\n",
			names[i], tn.State(), st.IterationsCompleted, st.ObjectsWritten, st.TokenGrants)
	}
	fmt.Printf("broker: %d grants, %d accounted to tenants, %d outstanding\n",
		broker.Stats().Grants, ss.Total.TokenGrants, broker.Outstanding())
	check(svc.Close())
	// Output:
	// submit alpha: running
	// submit beta: running
	// submit gamma: queued
	// evict beta: gamma running on 2 nodes
	// alpha done: 3 iterations, 3 objects, 3 token grants
	// beta evicted: 3 iterations, 3 objects, 3 token grants
	// gamma done: 3 iterations, 3 objects, 3 token grants
	// broker: 9 grants, 9 accounted to tenants, 0 outstanding
}

// ExampleRestore writes four checkpoints of a nine-node cluster into a
// compressed SDF store, losing interior node 1 at iteration 2, then
// restarts from the directory alone: the latest complete checkpoint is
// iteration 1, and every block of it equals what was written.
func ExampleRestore() {
	dir := must(os.MkdirTemp("", "restore-example-"))
	defer os.RemoveAll(dir)
	store := must(chunk.Stack(must(storage.NewSDF(nil, 4, 1e9, dir)), storage.AdaptiveCodec, nil))
	c := must(cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: 9, CoresPerNode: 3},
		Fanout:   2,
		Store:    store,
	}, cluster.RunSpec{Meta: exampleConfig("restart"), Failures: cluster.NewFailureSchedule().Add(1, 2)}))
	check(cluster.Drive(c, cluster.Workload{Variable: "theta", To: 4, Payload: exampleField,
		EachIteration: func(int) error { return nil }}))
	check(c.Shutdown())
	acc := store.Accounting()
	fmt.Printf("%d objects framed, %d -> %d bytes\n", acc.ObjectsCompressed, acc.ObjectRawBytes, acc.ObjectEncodedBytes)

	r := must(cluster.Restore(chunk.ReadStack(must(storage.NewSDF(nil, 4, 1e9, dir))), "restart"))
	fmt.Printf("restored %d manifests, %d blocks, %d problems\n", r.Manifests, r.TotalBlocks(), len(r.Problems))
	for _, it := range r.IterationNumbers() {
		ri := r.Iterations[it]
		fmt.Printf("iteration %d: %d blocks from %d of 9 nodes\n", it, len(ri.Blocks), len(ri.Covers))
	}
	ckpt, _ := r.LatestComplete(9)
	same := 0
	for n, blocks := range r.NodeBlocks(ckpt) {
		for _, b := range blocks {
			if bytes.Equal(b.Data, exampleField(n, b.Source, ckpt)) {
				same++
			}
		}
	}
	fmt.Printf("restart from iteration %d: %d blocks equal what was written\n", ckpt, same)
	// Output:
	// 8 objects framed, 72988 -> 26485 bytes
	// restored 4 manifests, 68 blocks, 0 problems
	// iteration 0: 18 blocks from 9 of 9 nodes
	// iteration 1: 18 blocks from 9 of 9 nodes
	// iteration 2: 16 blocks from 8 of 9 nodes
	// iteration 3: 16 blocks from 8 of 9 nodes
	// restart from iteration 1: 18 blocks equal what was written
}

// exampleConfig describes one variable, theta: a row of 128 float64s.
func exampleConfig(name string) *meta.Config {
	return must(meta.ParseString(`<simulation name="` + name + `">
	  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
	  <data>
	    <parameter name="n" value="128"/>
	    <layout name="row" type="float64" dimensions="n"/>
	    <variable name="theta" layout="row" unit="K"/>
	  </data>
	</simulation>`))
}

// exampleField is the block client (node, source) writes at iteration
// it: a smooth profile, so a restore can be checked byte for byte and
// the codecs have something to compress.
func exampleField(node, source, it int) []byte {
	p := make([]byte, 128*8)
	for i := 0; i < 128; i++ {
		v := 300 + float64(node) + float64(source)/4 + 2*math.Sin(float64(i+it*3)/11)
		binary.LittleEndian.PutUint64(p[i*8:], math.Float64bits(v))
	}
	return p
}

// must and check stop an example at its first error; an integration
// handles each one.
func must[T any](v T, err error) T { check(err); return v }

func check(err error) {
	if err != nil {
		panic(err)
	}
}
