// Multitenant example: one long-lived cluster.Service hosting three
// simulations on a shared four-node machine. The service owns the
// platform, one fair-share token broker, and one object store;
// each tenant borrows a slice of nodes through an admission policy.
// Two tenants fit side by side; the third oversubscribes the machine
// and queues until a core frees up — then one running tenant is
// evicted mid-flight to show the reclaim path: its broker tokens and
// pooled buffers come back, and the queued tenant starts.
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/topology"
)

const configXML = `
<simulation name="tenantdemo">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="4194304"/>
  </architecture>
  <data>
    <parameter name="nx" value="64"/>
    <layout name="row" type="float64" dimensions="nx"/>
    <variable name="theta" layout="row" unit="K"/>
  </data>
</simulation>`

const (
	nodes      = 4
	coresPer   = 3 // 2 simulation clients + 1 dedicated
	iterations = 3
)

func main() {
	// The shared substrate: every tenant's dedicated cores arbitrate
	// their writes on this one broker, fair-share weighted, holder-tagged
	// so the per-tenant accounting stays exact.
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyFairShare,
		Targets: 2,
	})
	store := storage.NewMemory(nil, 2, 1e9)
	svc, err := cluster.NewService(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "demo", Nodes: nodes, CoresPerNode: coresPer},
		Store:    store,
		Broker:   broker,
	}, cluster.ServiceOptions{Admission: cluster.AdmitDeadline})
	if err != nil {
		log.Fatal(err)
	}

	submit := func(name string, quota int, weight float64) *cluster.Tenant {
		cfg, err := damaris.ParseConfigString(configXML)
		if err != nil {
			log.Fatal(err)
		}
		tn, err := svc.Submit(cluster.RunSpec{
			Meta:    cfg,
			JobName: name,
			Quota:   cluster.Quota{Nodes: quota},
			Weight:  weight,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %q (quota %d nodes): %s\n", name, quota, tn.State())
		return tn
	}

	// Two tenants fill the machine; the third queues.
	alpha := submit("alpha", 2, 1)
	beta := submit("beta", 2, 2)
	gamma := submit("gamma", 2, 1)

	// Drive alpha and beta concurrently, like two independent jobs.
	var wg sync.WaitGroup
	for _, tn := range []*cluster.Tenant{alpha, beta} {
		wg.Add(1)
		go func(tn *cluster.Tenant) {
			defer wg.Done()
			drive(tn)
		}(tn)
	}
	wg.Wait()

	// Evict beta mid-life: its tokens and buffers are reclaimed, its
	// cores return to the pool, and gamma — queued until now — starts.
	if err := beta.Evict(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evicted %q; tokens outstanding on the shared broker: %d\n",
		"beta", broker.Outstanding())
	if err := gamma.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%q dispatched from the queue on %d nodes\n", "gamma", gamma.Nodes())
	drive(gamma)
	if err := gamma.Finish(); err != nil {
		log.Fatal(err)
	}
	if err := alpha.Finish(); err != nil {
		log.Fatal(err)
	}

	ss := svc.Stats()
	fmt.Printf("\nservice: %d submitted, %d completed, %d evicted, peak queue %d\n",
		ss.Submitted, ss.Completed, ss.Evicted, ss.MaxQueued)
	for id, st := range ss.PerTenant {
		fmt.Printf("  tenant %d: %d iterations, %d objects, %d token grants, %d reclaimed\n",
			id, st.IterationsCompleted, st.ObjectsWritten, st.TokenGrants, st.TokensReclaimed)
	}
	fmt.Printf("totals: %d objects on the shared store, %d broker grants accounted, 0 leaked (%d outstanding)\n",
		ss.Total.ObjectsWritten, ss.Total.TokenGrants, broker.Outstanding())
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
}

// drive pushes every iteration through every client of a tenant's
// cluster, exactly as a standalone run would.
func drive(tn *cluster.Tenant) {
	c := tn.Cluster()
	if c == nil {
		log.Fatalf("tenant %d has no cluster (state %s)", tn.ID(), tn.State())
	}
	field := make([]float64, 64)
	var wg sync.WaitGroup
	for n := 0; n < c.Nodes(); n++ {
		for s := 0; s < c.ClientsPerNode(); s++ {
			wg.Add(1)
			go func(n, s int) {
				defer wg.Done()
				client := c.Client(n, s)
				for it := 0; it < iterations; it++ {
					for i := range field {
						field[i] = 290 + 10*math.Sin(float64(n+s+it)+float64(i)/10)
					}
					if err := client.Write("theta", it, compress.Float64Bytes(field)); err != nil {
						log.Fatal(err)
					}
					client.EndIteration(it)
				}
			}(n, s)
		}
	}
	wg.Wait()
	c.WaitIteration(iterations - 1)
	fmt.Printf("tenant %d (%d nodes) completed %d iterations\n",
		tn.ID(), c.Nodes(), iterations)
}
