package damaris

import (
	"path/filepath"
	"strings"
	"testing"
)

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
