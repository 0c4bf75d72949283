package damaris

// Full-stack integration tests: one CM1 proxy per simulated core across
// several simulated SMP nodes, writing through the Damaris middleware
// with the aggregating SDF plugin, then reading every block back from
// disk and checking it bitwise against the simulation state — the
// complete §III pipeline end to end.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cm1"
	"repro/internal/compress"
	"repro/internal/sdf"
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
  <plugins>
    <plugin name="sdf-writer" event="end_iteration" dir="%s" codec="gorilla"/>
  </plugins>
</simulation>`

func TestCM1ThroughDamarisEndToEnd(t *testing.T) {
	const (
		nodes        = 2
		coresPerNode = 4
		cores        = nodes * coresPerNode
		steps        = 9
		outputEvery  = 3
	)
	dir := t.TempDir()

	// One Damaris node runtime per simulated SMP node, with the
	// aggregating writer configured from XML.
	var nodeRuntimes []*Node
	for n := 0; n < nodes; n++ {
		node, err := NewNodeFromXML(fmt.Sprintf(integrationXML, dir), coresPerNode, Options{NodeID: n})
		if err != nil {
			t.Fatal(err)
		}
		nodeRuntimes = append(nodeRuntimes, node)
	}

	// Keep a copy of what each core wrote last, to verify the read-back.
	var mu sync.Mutex
	written := map[string][]float64{} // "var/src" -> data at final output

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
			node := core / coresPerNode
			local := core % coresPerNode
			client := nodeRuntimes[node].Client(local)
			for step := 1; step <= steps; step++ {
				model.Step()
				if step%outputEvery != 0 {
					continue
				}
				it := step / outputEvery
				for _, f := range model.Fields() {
					if err := client.Write(f.Name, it, compress.Float64Bytes(f.Data)); err != nil {
						t.Errorf("core %d write %s: %v", core, f.Name, err)
					}
					if step == steps {
						mu.Lock()
						key := fmt.Sprintf("node%d/%s/src%04d", node, f.Name, local)
						written[key] = append([]float64(nil), f.Data...)
						mu.Unlock()
					}
				}
				client.EndIteration(it)
			}
		}(core)
	}
	wg.Wait()
	for _, n := range nodeRuntimes {
		if err := n.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}

	// One aggregated file per node per output phase.
	files, err := filepath.Glob(filepath.Join(dir, "*.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := nodes * (steps / outputEvery)
	if len(files) != wantFiles {
		t.Fatalf("found %d files, want %d", len(files), wantFiles)
	}

	// Read back the final iteration of every node and compare bitwise.
	finalIt := steps / outputEvery
	for n := 0; n < nodes; n++ {
		path := filepath.Join(dir, fmt.Sprintf("integration-node%04d-it%06d.sdf", n, finalIt))
		r, err := sdf.Open(path)
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		if got := len(r.Datasets()); got != 3*coresPerNode {
			t.Fatalf("node %d file has %d datasets, want %d", n, got, 3*coresPerNode)
		}
		for _, varName := range []string{"theta", "qv", "w"} {
			for src := 0; src < coresPerNode; src++ {
				dsPath := fmt.Sprintf("%s/src%04d", varName, src)
				vals, err := r.ReadFloat64s(dsPath)
				if err != nil {
					t.Fatalf("node %d %s: %v", n, dsPath, err)
				}
				key := fmt.Sprintf("node%d/%s/src%04d", n, varName, src)
				want := written[key]
				if len(vals) != len(want) {
					t.Fatalf("%s: %d values, want %d", key, len(vals), len(want))
				}
				for i := range vals {
					if vals[i] != want[i] {
						t.Fatalf("%s: value %d = %v, want %v (gorilla round-trip broke?)",
							key, i, vals[i], want[i])
					}
				}
			}
		}
		r.Close()
	}

	// The middleware must have returned all shared memory.
	for n, rt := range nodeRuntimes {
		if rt.Segment().Allocated() != 0 {
			t.Errorf("node %d leaked %d bytes of shared memory", n, rt.Segment().Allocated())
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
