// Cluster example: eight SMP nodes, each running the Damaris middleware
// with one dedicated core, wired into a binary cross-node aggregation
// tree. Every iteration, each node's dedicated core forwards the node's
// blocks toward the tree root, interior nodes batch their subtree, and
// the root stores one large object per iteration — first into an
// in-memory backend, then into a local SDF store whose artifacts you
// can inspect with cmd/sdfdump.
package main

import (
	"fmt"
	"log"
	"math"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/topology"
)

const configXML = `
<simulation name="clusterdemo">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="4194304"/>
  </architecture>
  <data>
    <parameter name="nx" value="32"/>
    <parameter name="ny" value="32"/>
    <layout name="slab" type="float64" dimensions="ny,nx"/>
    <variable name="theta" layout="slab" unit="K"/>
  </data>
</simulation>`

const (
	nodes      = 8
	coresPer   = 4 // 3 simulation clients + 1 dedicated
	iterations = 3
)

func main() {
	cfg, err := damaris.ParseConfigString(configXML)
	if err != nil {
		log.Fatal(err)
	}

	// A tiny platform: the cluster layer only needs Nodes/CoresPerNode.
	plat := topology.Platform{Name: "demo", Nodes: nodes, CoresPerNode: coresPer}

	for _, store := range []storage.Backend{
		storage.NewMemory(nil, 4, 1e9),
		mustSDF("cluster-out"),
	} {
		c, err := cluster.New(cluster.ClusterConfig{
			Platform: plat,
			Fanout:   2,
			Store:    store,
		}, cluster.RunSpec{
			Meta: cfg,
			Hooks: []cluster.Hook{cluster.HookFunc{
				HookName: "report",
				Fn: func(it int, b *cluster.Batch) error {
					fmt.Printf("  [%s] iteration %d aggregated: %d blocks, %d bytes\n",
						store.Name(), it, len(b.Blocks), b.Bytes())
					return nil
				},
			}},
		})
		if err != nil {
			log.Fatal(err)
		}

		// Drive every simulation core; in a real coupling each client
		// lives on its own core of its own node.
		field := make([]float64, 32*32)
		for n := 0; n < nodes; n++ {
			for s := 0; s < coresPer-1; s++ {
				client := c.Client(n, s)
				for it := 0; it < iterations; it++ {
					for i := range field {
						field[i] = 290 + 10*math.Sin(float64(n+s+it)+float64(i)/100)
					}
					if err := client.Write("theta", it, compress.Float64Bytes(field)); err != nil {
						log.Fatal(err)
					}
					client.EndIteration(it)
				}
			}
		}
		c.WaitIteration(iterations - 1)
		if err := c.Shutdown(); err != nil {
			log.Fatal(err)
		}

		st := c.Stats()
		acc := store.Accounting()
		fmt.Printf("[%s] tree depth %d: %d batches forwarded (%.1f MB), "+
			"%d objects stored (%.1f MB)\n\n",
			store.Name(), c.Tree().Depth(), st.BatchesForwarded,
			float64(st.BytesForwarded)/1e6, acc.Objects, float64(acc.ObjectBytes)/1e6)
	}
	fmt.Println("SDF objects left in cluster-out/ — inspect one with cmd/sdfdump")
}

func mustSDF(dir string) storage.Backend {
	b, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		log.Fatal(err)
	}
	return b
}
