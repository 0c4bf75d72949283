package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/insitu"
	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

// Example_streamingHook wires a streaming hook into a cluster so an
// in-situ consumer analyzes each iteration live, while the root's
// store write proceeds independently (see docs/STREAMING.md).
func Example_streamingHook() {
	metaCfg, err := meta.ParseString(`<simulation name="example">
	  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
	  <data>
	    <parameter name="n" value="4"/>
	    <layout name="row" type="float64" dimensions="n"/>
	    <variable name="theta" layout="row"/>
	  </data>
	</simulation>`)
	if err != nil {
		fmt.Println("meta:", err)
		return
	}

	stream := storage.NewStream()
	sub := stream.Subscribe(storage.SubOptions{Buffer: 4, Policy: storage.DropOldest})
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "example", Nodes: 1, CoresPerNode: 2},
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, cluster.RunSpec{
		Meta:  metaCfg,
		Hooks: []cluster.Hook{cluster.NewStreamingHook(stream)},
	})
	if err != nil {
		fmt.Println("cluster:", err)
		return
	}

	cl := c.Client(0, 0)
	for it := 0; it < 2; it++ {
		vals := []float64{1, 2, 3, 4 + float64(it)}
		if err := cl.Write("theta", it, compress.Float64Bytes(vals)); err != nil {
			fmt.Println("write:", err)
			return
		}
		cl.EndIteration(it)
	}
	c.WaitIteration(1)
	if err := c.Shutdown(); err != nil {
		fmt.Println("shutdown:", err)
		return
	}
	stream.Close()

	consumer := cluster.NewStreamConsumer(sub, insitu.Pipeline{Bins: 2})
	if err := consumer.Run(); err != nil {
		fmt.Println("consumer:", err)
		return
	}
	for _, r := range consumer.Results() {
		m := r.Result.Moments
		fmt.Printf("it %d %s: mean %.2f max %.0f hist %v\n",
			r.Result.Iteration, r.Result.Field, m.Mean, m.Max, r.Result.Histogram)
	}
	// Output:
	// it 0 theta: mean 2.50 max 4 hist [2 2]
	// it 1 theta: mean 2.75 max 5 hist [2 2]
}
