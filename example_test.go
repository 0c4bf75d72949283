package damaris_test

import (
	"bytes"
	"fmt"
	"os"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// Example is the smallest complete integration: one node with two
// simulation cores and one dedicated core, run as a one-node cluster
// that stores each iteration, compressed by the adaptive codec, as one
// SDF data object plus its manifest. A fresh store over the same
// directory then restores every block byte for byte.
func Example() {
	dir := must(os.MkdirTemp("", "damaris-example-"))
	defer os.RemoveAll(dir)
	cfg := must(damaris.ParseConfigString(`<simulation name="quickstart">
	  <architecture><dedicated cores="1"/><buffer size="8388608"/></architecture>
	  <data>
	    <layout name="row" type="float64" dimensions="512"/>
	    <variable name="theta" layout="row" unit="K"/>
	  </data>
	</simulation>`))
	store := must(chunk.Stack(must(storage.NewSDF(nil, 1, 1e9, dir)), storage.AdaptiveCodec, nil))
	c := must(cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: 1, CoresPerNode: 3},
		Store:    store,
	}, cluster.RunSpec{Meta: cfg}))
	for it := 0; it < 3; it++ {
		for src := 0; src < 2; src++ {
			client := c.Client(0, src)
			check(client.Write("theta", it, theta(src, it)))
			client.EndIteration(it)
		}
	}
	c.WaitIteration(2)
	check(c.Shutdown())

	reopened := must(storage.NewSDF(nil, 1, 1e9, dir))
	names := must(reopened.List(""))
	manifests := 0
	for _, name := range names {
		if cluster.IsManifestName(name) {
			manifests++
		}
	}
	r := must(cluster.Restore(chunk.ReadStack(reopened), cfg.Name))
	fmt.Printf("%d manifests, %d data objects; restored %d manifests, %d problems\n",
		manifests, len(names)-manifests, r.Manifests, len(r.Problems))
	same := 0
	for _, it := range r.IterationNumbers() {
		ri := r.Iterations[it]
		fmt.Printf("iteration %d: %d blocks, complete %v\n", it, len(ri.Blocks), ri.Complete(1))
		for _, b := range ri.Blocks {
			if b.Node == 0 && b.Variable == "theta" && bytes.Equal(b.Data, theta(b.Source, it)) {
				same++
			}
		}
	}
	fmt.Printf("%d of %d blocks equal what was written\n", same, r.TotalBlocks())
	// Output:
	// 3 manifests, 3 data objects; restored 3 manifests, 0 problems
	// iteration 0: 2 blocks, complete true
	// iteration 1: 2 blocks, complete true
	// iteration 2: 2 blocks, complete true
	// 6 of 6 blocks equal what was written
}

// theta is what simulation core src computes at iteration it.
func theta(src, it int) []byte {
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = 300 + float64(it) + float64(src*i)/512
	}
	return compress.Float64Bytes(vals)
}

// must and check stop an example at its first error; an integration
// handles each one.
func must[T any](v T, err error) T { check(err); return v }

func check(err error) {
	if err != nil {
		panic(err)
	}
}
