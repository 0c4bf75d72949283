package plugins

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/meta"
)

const vizXML = `
<simulation name="plugtest">
  <architecture><buffer size="8388608"/></architecture>
  <data>
    <parameter name="n" value="8"/>
    <layout name="cube" type="float64" dimensions="n,n,n"/>
    <variable name="theta" layout="cube" unit="K"/>
  </data>
</simulation>`

func cubeData(fn func(k, j, i int) float64) []byte {
	xs := make([]float64, 8*8*8)
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				xs[(k*8+j)*8+i] = fn(k, j, i)
			}
		}
	}
	return compress.Float64Bytes(xs)
}

func smoothCube() []byte {
	return cubeData(func(k, j, i int) float64 {
		return 300 + math.Sin(float64(i)/3) + math.Cos(float64(j+k)/4)
	})
}

func runNode(t *testing.T, plugin core.Plugin, clients, iters int) *core.Node {
	t.Helper()
	cfg, err := meta.ParseString(vizXML)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(cfg, clients, core.Options{
		ExtraPlugins: map[string][]core.Plugin{"end_iteration": {plugin}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		for s := 0; s < clients; s++ {
			c := node.Client(s)
			if err := c.Write("theta", it, smoothCube()); err != nil {
				t.Fatal(err)
			}
			c.EndIteration(it)
		}
	}
	node.WaitIteration(iters - 1)
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return node
}

func TestStatsPlugin(t *testing.T) {
	s := NewStats()
	runNode(t, s, 2, 3)
	if s.Rounds() != 3 {
		t.Fatalf("rounds = %d", s.Rounds())
	}
	m, ok := s.Latest("theta")
	if !ok {
		t.Fatal("no moments for theta")
	}
	if m.N != 2*512 {
		t.Fatalf("moments over %d values, want 1024", m.N)
	}
	if m.Min < 297 || m.Max > 303 {
		t.Fatalf("implausible moments: %+v", m)
	}
	if _, ok := s.Latest("never"); ok {
		t.Fatal("moments for unknown variable")
	}
}

func TestVisualizerProducesResultsAndImages(t *testing.T) {
	dir := t.TempDir()
	v, err := NewVisualizer(map[string]string{"dir": dir, "bins": "16"})
	if err != nil {
		t.Fatal(err)
	}
	runNode(t, v, 2, 2)
	results := v.Results()
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (one per iteration)", len(results))
	}
	for _, res := range results {
		if res.Field != "theta" || len(res.Histogram) != 16 {
			t.Fatalf("result = %+v", res)
		}
		// Two sources stacked along z: 16×8×8 field.
		if res.Moments.N != 1024 {
			t.Fatalf("analyzed %d values", res.Moments.N)
		}
	}
	imgs, err := filepath.Glob(filepath.Join(dir, "*.pgm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 {
		t.Fatalf("rendered %d images, want 2", len(imgs))
	}
	data, err := os.ReadFile(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:2]) != "P5" {
		t.Fatal("not a PGM image")
	}
}

func TestVisualizerConfigValidation(t *testing.T) {
	if _, err := NewVisualizer(map[string]string{"bins": "NaN"}); err == nil {
		t.Fatal("bad bins accepted")
	}
	if _, err := NewVisualizer(map[string]string{"render": "maybe"}); err == nil {
		t.Fatal("bad render accepted")
	}
}

func TestXMLRegistryIntegration(t *testing.T) {
	// End-to-end: plugins declared purely in XML, resolved via init().
	// NewNode rejects an unregistered name, and the visualizer's image
	// shows the XML attributes reached the plugin.
	dir := t.TempDir()
	xml := `<simulation name="xmlflow">
	  <architecture><buffer size="4194304"/></architecture>
	  <data>
	    <layout name="cube" type="float64" dimensions="8,8,8"/>
	    <variable name="theta" layout="cube"/>
	  </data>
	  <plugins>
	    <plugin name="stats" event="end_iteration"/>
	    <plugin name="visualize" event="end_iteration" dir="` + dir + `" bins="8"/>
	  </plugins>
	</simulation>`
	cfg, err := meta.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(cfg, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := node.Client(0)
	if err := c.Write("theta", 0, smoothCube()); err != nil {
		t.Fatal(err)
	}
	c.EndIteration(0)
	node.WaitIteration(0)
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if st := node.Stats(); st.PluginErrors != 0 {
		t.Fatalf("XML-configured plugins failed %d times: %v", st.PluginErrors, node.Errors())
	}
	imgs, _ := filepath.Glob(filepath.Join(dir, "*.pgm"))
	if len(imgs) != 1 {
		t.Fatalf("XML-configured visualizer rendered %d images, want 1", len(imgs))
	}
}
