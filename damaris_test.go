package damaris

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

// TestPublicAPIEndToEnd exercises the documented integration at one
// node: XML config, a one-node cluster storing each iteration through
// the adaptive codec into SDF files, clients, writes, shutdown — then a
// restore from the directory alone gives back every block byte for byte.
func TestPublicAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg, err := ParseConfigString(`<simulation name="facade">
	  <architecture><dedicated cores="1"/><buffer size="8388608"/></architecture>
	  <data>
	    <parameter name="n" value="8"/>
	    <layout name="cube" type="float64" dimensions="n,n,n"/>
	    <variable name="theta" layout="cube" unit="K"/>
	  </data>
	</simulation>`)
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
		Platform: topology.Platform{Nodes: 1, CoresPerNode: 3},
		Store:    store,
	}, cluster.RunSpec{Meta: cfg})
	if err != nil {
		t.Fatal(err)
	}
	written := map[[2]int][]byte{} // (iteration, source) -> payload
	for it := 0; it < 2; it++ {
		for src := 0; src < 2; src++ {
			data := make([]float64, 512)
			for i := range data {
				data[i] = 300 + float64(it) + float64(src*i)/512
			}
			written[[2]int{it, src}] = compress.Float64Bytes(data)
			if err := c.Client(0, src).Write("theta", it, written[[2]int{it, src}]); err != nil {
				t.Fatal(err)
			}
			c.Client(0, src).EndIteration(it)
		}
	}
	c.WaitIteration(1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	reopened, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.Restore(chunk.ReadStack(reopened), "facade")
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifests != 2 || len(r.Problems) != 0 {
		t.Fatalf("restored %d manifests (problems %v), want 2", r.Manifests, r.Problems)
	}
	for it := 0; it < 2; it++ {
		ri := r.Iterations[it]
		if ri == nil || !ri.Complete(1) || len(ri.Blocks) != 2 {
			t.Fatalf("iteration %d restored as %+v, want 2 blocks from node 0", it, ri)
		}
		for _, b := range ri.Blocks {
			if b.Node != 0 || b.Variable != "theta" || !bytes.Equal(b.Data, written[[2]int{it, b.Source}]) {
				t.Fatalf("iteration %d: block %d/%d/%s differs from what was written", it, b.Node, b.Source, b.Variable)
			}
		}
	}
}

func TestParseConfigHelpers(t *testing.T) {
	xml := `<simulation name="x"><data>
	  <layout name="l" type="float32" dimensions="4"/>
	  <variable name="v" layout="l"/>
	</data></simulation>`
	cfg, err := ParseConfigString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "x" {
		t.Fatalf("name = %q", cfg.Name)
	}
	cfg2, err := ParseConfig(strings.NewReader(xml))
	if err != nil || cfg2.Name != "x" {
		t.Fatalf("ParseConfig: %v", err)
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.xml")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRegisterPluginFromFacade(t *testing.T) {
	called := false
	RegisterPlugin("facade-probe", func(cfg map[string]string) (Plugin, error) {
		return PluginFunc{PluginName: "facade-probe", Fn: func(*PluginContext, Event) error {
			called = true
			return nil
		}}, nil
	})
	xml := `<simulation name="t"><data>
	  <layout name="l" type="float64" dimensions="4"/>
	  <variable name="v" layout="l"/>
	</data>
	<plugins><plugin name="facade-probe" event="end_iteration"/></plugins>
	</simulation>`
	node, err := NewNodeFromXML(xml, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := node.Client(0)
	if err := c.Write("v", 0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	c.EndIteration(0)
	node.WaitIteration(0)
	node.Shutdown()
	if !called {
		t.Fatal("registered plugin never ran")
	}
}
