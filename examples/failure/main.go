// Failure example: a nine-node cluster wired into a binary aggregation
// tree loses an interior aggregation node mid-run. The tree re-routes
// the dead node's children to its parent, the orphaned in-flight merges
// drain upward, and the run finishes with only the dead node's own
// blocks missing — the trade the paper's §V.C skip policy makes on the
// producer side, applied to whole-node loss.
//
//	tree:  0 ── {1, 2};  1 ── {3, 4};  2 ── {5, 6};  3 ── {7, 8}
//	node 1 dies at iteration 2: children 3 and 4 re-route to the root.
package main

import (
	"fmt"
	"log"
	"sort"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/topology"
)

const configXML = `
<simulation name="failuredemo">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="1048576"/>
  </architecture>
  <data>
    <parameter name="n" value="128"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row" unit="K"/>
  </data>
</simulation>`

const (
	nodes      = 9
	clients    = 2 // per node, plus 1 dedicated core
	iterations = 4
	deadNode   = 1
	failAt     = 2
)

func main() {
	cfg, err := damaris.ParseConfigString(configXML)
	if err != nil {
		log.Fatal(err)
	}
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "demo", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   2,
		Store:    store,
	}, cluster.RunSpec{
		Meta:     cfg,
		Failures: cluster.NewFailureSchedule().Add(deadNode, failAt),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes, fanout 2, roots %v — node %d scheduled to die at iteration %d\n\n",
		nodes, c.Tree().Roots(), deadNode, failAt)

	field := make([]byte, 128*8)
	for n := 0; n < nodes; n++ {
		for s := 0; s < clients; s++ {
			cl := c.Client(n, s)
			for it := 0; it < iterations; it++ {
				for i := range field {
					field[i] = byte(n + s + it + i)
				}
				if err := cl.Write("theta", it, field); err != nil {
					log.Fatal(err)
				}
				cl.EndIteration(it)
			}
		}
	}
	c.WaitIteration(iterations - 1) // survives the death: no deadlock
	if err := c.Shutdown(); err != nil {
		log.Fatal(err)
	}

	st := c.Stats()
	tr := c.Tree()
	fmt.Printf("nodes failed:    %d (node %d at iteration %d)\n", st.NodesFailed, deadNode, failAt)
	fmt.Printf("re-routed edges: %d (children of %d now report to the root)\n",
		st.ReroutedEdges, deadNode)
	fmt.Printf("blocks lost:     %d (node %d's own output from iteration %d on)\n",
		st.BlocksLost, deadNode, failAt)
	fmt.Printf("surviving roots: %v, tree depth %d\n\n", tr.Roots(), tr.Depth())

	its := make([]int, 0, len(st.Completeness))
	for it := range st.Completeness {
		its = append(its, it)
	}
	sort.Ints(its)
	for _, it := range its {
		obj, err := store.Get(fmt.Sprintf("failuredemo-root000-it%06d", it))
		if err != nil {
			log.Fatal(err)
		}
		b, err := cluster.DecodeBatch(obj)
		if err != nil {
			log.Fatal(err)
		}
		covered := map[int]bool{}
		for _, blk := range b.Blocks {
			covered[blk.Node] = true
		}
		fmt.Printf("iteration %d: %3.0f%% of the cluster stored (%d blocks from %d nodes)\n",
			it, 100*st.Completeness[it], len(b.Blocks), len(covered))
	}
	fmt.Println("\nthe re-routed subtrees (nodes 3, 4, 7, 8) kept flowing after the death;")
	fmt.Println("only the dead node's own blocks are missing from iterations ≥ 2.")
}
