package damaris

// Full-stack integration tests: one CM1 proxy per simulated core across
// several simulated SMP nodes, writing through the Damaris middleware
// into a cluster whose root stores each iteration — framed by the
// adaptive codec — as an SDF object, then restoring every block from
// disk and checking it bitwise against the simulation state — the
// complete §III pipeline end to end.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cm1"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

const integrationXML = `
<simulation name="integration">
  <architecture><dedicated cores="1"/><buffer size="16777216"/></architecture>
  <data>
    <parameter name="nx" value="8"/>
    <parameter name="ny" value="8"/>
    <parameter name="nz" value="6"/>
    <layout name="grid" type="float64" dimensions="nz,ny,nx"/>
    <variable name="theta" layout="grid" unit="K"/>
    <variable name="qv" layout="grid" unit="kg/kg"/>
    <variable name="w" layout="grid" unit="m/s"/>
  </data>
</simulation>`

func TestCM1ThroughDamarisEndToEnd(t *testing.T) {
	const (
		nodes          = 2
		clientsPerNode = 4 // plus one dedicated core per node
		cores          = nodes * clientsPerNode
		steps          = 9
		outputEvery    = 3
	)
	dir := t.TempDir()
	cfg, err := ParseConfigString(integrationXML)
	if err != nil {
		t.Fatal(err)
	}
	base, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := chunk.Stack(base, storage.AdaptiveCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: nodes, CoresPerNode: clientsPerNode + 1},
		Store:    store,
	}, cluster.RunSpec{Meta: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// Keep a copy of what each core wrote last, to verify the read-back.
	var mu sync.Mutex
	written := map[string][]byte{} // "node/var/src" -> payload at final output

	var wg sync.WaitGroup
	for core := 0; core < cores; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			params := cm1.DefaultParams()
			params.NX, params.NY, params.NZ = 8, 8, 6
			model, err := cm1.New(params)
			if err != nil {
				t.Error(err)
				return
			}
			node := core / clientsPerNode
			local := core % clientsPerNode
			client := c.Client(node, local)
			for step := 1; step <= steps; step++ {
				model.Step()
				if step%outputEvery != 0 {
					continue
				}
				it := step / outputEvery
				for _, f := range model.Fields() {
					data := compress.Float64Bytes(f.Data)
					if err := client.Write(f.Name, it, data); err != nil {
						t.Errorf("core %d write %s: %v", core, f.Name, err)
					}
					if step == steps {
						mu.Lock()
						written[fmt.Sprintf("node%d/%s/src%04d", node, f.Name, local)] = bytes.Clone(data)
						mu.Unlock()
					}
				}
				client.EndIteration(it)
			}
		}(core)
	}
	wg.Wait()
	finalIt := steps / outputEvery
	c.WaitIteration(finalIt)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restore from the directory alone: one manifest per output phase.
	reopened, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.Restore(chunk.ReadStack(reopened), "integration")
	if err != nil {
		t.Fatal(err)
	}
	if want := steps / outputEvery; r.Manifests != want || len(r.Problems) != 0 {
		t.Fatalf("restored %d manifests (problems %v), want %d", r.Manifests, r.Problems, want)
	}

	// Compare every block of the final iteration bitwise.
	final := r.Iterations[finalIt]
	if final == nil || !final.Complete(nodes) || len(final.Blocks) != 3*cores {
		t.Fatalf("final iteration restored as %+v, want %d blocks from %d nodes", final, 3*cores, nodes)
	}
	for _, b := range final.Blocks {
		key := fmt.Sprintf("node%d/%s/src%04d", b.Node, b.Variable, b.Source)
		if want, ok := written[key]; !ok || !bytes.Equal(b.Data, want) {
			t.Fatalf("%s: restored block differs from what the core wrote", key)
		}
	}

	// The middleware must have returned all shared memory.
	for n := 0; n < nodes; n++ {
		if got := c.Node(n).Segment().Allocated(); got != 0 {
			t.Errorf("node %d leaked %d bytes of shared memory", n, got)
		}
	}
}

func TestSkipPolicyUnderBackpressureEndToEnd(t *testing.T) {
	// A slow plugin plus a segment sized for one iteration: the client
	// must observe ErrSkipped on some iterations and never deadlock.
	xml := `<simulation name="pressure">
	  <architecture><buffer size="65536"/></architecture>
	  <data>
	    <layout name="l" type="float64" dimensions="4096"/>
	    <variable name="v" layout="l"/>
	  </data>
	</simulation>`
	slow := PluginFunc{PluginName: "slow", Fn: func(ctx *PluginContext, ev Event) error {
		// Consume the iteration slowly by scanning its blocks twice.
		for _, ref := range ctx.Index.Iteration(ev.Iteration) {
			sum := 0.0
			for _, b := range ctx.BlockBytes(ref) {
				sum += float64(b)
			}
			_ = sum
		}
		return nil
	}}
	node, err := NewNodeFromXML(xml, 1, Options{
		ExtraPlugins: map[string][]Plugin{"end_iteration": {slow}},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := node.Client(0)
	data := make([]byte, 4096*8)
	skips := 0
	for it := 0; it < 200; it++ {
		if err := client.Write("v", it, data); err != nil {
			skips++
		}
		client.EndIteration(it)
	}
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := node.Stats()
	if st.BlocksWritten == 0 {
		t.Fatal("nothing was ever written")
	}
	if st.BlocksWritten+int64(skips) != 200 {
		t.Fatalf("accounting: %d written + %d skipped != 200", st.BlocksWritten, skips)
	}
}
