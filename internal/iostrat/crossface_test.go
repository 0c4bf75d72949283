package iostrat

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

// TestFacesAgreeUnderFailures puts the same (nodes, fanout, roots,
// failure schedule) through both drivers of cluster.Forest — the
// runtime cluster with real clients, goroutines and bytes, and the DES
// model in virtual time — and requires the same protocol-level
// outcome: per-iteration completeness, nodes failed and edges
// re-routed. The runtime side must also conserve blocks: everything
// produced is either restored from the store or counted in BlocksLost.
func TestFacesAgreeUnderFailures(t *testing.T) {
	const clients, iters = 2, 4
	for _, tc := range []struct {
		name                 string
		nodes, fanout, roots int
		failures             *cluster.FailureSchedule
	}{
		{"interior death", 9, 2, 1, cluster.NewFailureSchedule().Add(1, 1)},
		{"root death with promotion", 12, 2, 2, cluster.NewFailureSchedule().Add(6, 1)},
		// 3 drains into 1, then 1 dies: the chain is chased to the root.
		{"two deaths on one drain chain", 15, 2, 1, cluster.NewFailureSchedule().Add(3, 1).Add(1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plat := topology.Kraken(tc.nodes)
			plat.PFS.OSTs = 32
			w := CM1Workload(iters)
			w.ComputeTime = 50
			des, err := Run(Damaris, Config{Platform: plat, Workload: w, Seed: 7,
				Fanout: tc.fanout, AggRoots: tc.roots, Failures: tc.failures})
			if err != nil {
				t.Fatal(err)
			}

			cfg, err := meta.ParseString(`<simulation name="crossface">
			  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
			  <data>
			    <parameter name="n" value="64"/>
			    <layout name="row" type="float64" dimensions="n"/>
			    <variable name="theta" layout="row"/>
			  </data>
			</simulation>`)
			if err != nil {
				t.Fatal(err)
			}
			store := storage.NewMemory(nil, 4, 1e9)
			c, err := cluster.New(cluster.ClusterConfig{
				Platform: topology.Platform{Name: "test", Nodes: tc.nodes, CoresPerNode: clients + 1},
				Fanout:   tc.fanout,
				Roots:    tc.roots,
				Store:    store,
			}, cluster.RunSpec{Meta: cfg, Failures: tc.failures})
			if err != nil {
				t.Fatal(err)
			}
			// Iterations run in lockstep, as the DES face's step barrier
			// runs them: the order of the deaths — and with it the edges
			// each one moves — is then the schedule's, not the scheduler's.
			for it := 0; it < iters; it++ {
				var wg sync.WaitGroup
				for n := 0; n < tc.nodes; n++ {
					for s := 0; s < clients; s++ {
						wg.Add(1)
						go func(n, s int) {
							defer wg.Done()
							cl := c.Client(n, s)
							if err := cl.Write("theta", it, make([]byte, 512)); err != nil {
								t.Errorf("node %d src %d it %d: %v", n, s, it, err)
							}
							cl.EndIteration(it)
						}(n, s)
					}
				}
				wg.Wait()
				c.WaitIteration(it)
			}
			if err := c.Shutdown(); err != nil {
				t.Fatal(err)
			}
			rt := c.Stats()

			if rt.NodesFailed != des.NodesFailed || rt.ReroutedEdges != des.ReroutedEdges {
				t.Errorf("runtime failed %d nodes / moved %d edges, DES %d / %d",
					rt.NodesFailed, rt.ReroutedEdges, des.NodesFailed, des.ReroutedEdges)
			}
			if len(rt.Completeness) != iters || len(des.Completeness) != iters {
				t.Fatalf("completeness covers %d runtime / %d DES iterations, want %d",
					len(rt.Completeness), len(des.Completeness), iters)
			}
			for it, frac := range des.Completeness {
				if rt.Completeness[it] != frac {
					t.Errorf("Completeness[%d]: runtime %v, DES %v", it, rt.Completeness[it], frac)
				}
			}
			if rt.PartialIterations != 0 {
				t.Errorf("PartialIterations = %d: a death is loss, not a straggler", rt.PartialIterations)
			}

			r, err := cluster.Restore(store, "crossface")
			if err != nil {
				t.Fatal(err)
			}
			if produced := tc.nodes * clients * iters; r.TotalBlocks()+rt.BlocksLost != produced {
				t.Errorf("produced %d blocks, restored %d + lost %d", produced, r.TotalBlocks(), rt.BlocksLost)
			}
		})
	}
}
