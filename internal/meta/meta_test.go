package meta

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

const sampleXML = `
<simulation name="cm1-proxy">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="67108864"/>
    <queue size="128"/>
  </architecture>
  <data>
    <parameter name="nx" value="16"/>
    <parameter name="ny" value="16"/>
    <parameter name="nz" value="8"/>
    <layout name="grid3d" type="float64" dimensions="nz,ny,nx"/>
    <layout name="grid3d_stag" type="float64" dimensions="nz+1,ny,nx"/>
    <layout name="profile" type="float32" dimensions="nz*2"/>
    <mesh name="domain" type="rectilinear" origin="0,0,0" spacing="1,1,0.5"/>
    <variable name="theta" layout="grid3d" mesh="domain" unit="K" centering="zonal"/>
    <variable name="w" layout="grid3d_stag" mesh="domain" unit="m/s"/>
    <variable name="prof" layout="profile"/>
  </data>
  <plugins>
    <plugin name="visualize" event="end_iteration" dir="out" bins="16"/>
    <plugin name="stats" event="compute_stats"/>
  </plugins>
</simulation>`

func mustParse(t *testing.T) *Config {
	t.Helper()
	cfg, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseArchitecture(t *testing.T) {
	cfg := mustParse(t)
	if cfg.Name != "cm1-proxy" {
		t.Errorf("name = %q", cfg.Name)
	}
	a := cfg.Architecture
	if a.DedicatedCores != 1 || a.BufferSize != 67108864 || a.QueueSize != 128 {
		t.Errorf("architecture = %+v", a)
	}
}

func TestParseLayouts(t *testing.T) {
	cfg := mustParse(t)
	g := cfg.Layouts["grid3d"]
	if g == nil || g.Type != Float64 {
		t.Fatalf("grid3d = %+v", g)
	}
	if g.Elems() != 8*16*16 {
		t.Errorf("grid3d elems = %d", g.Elems())
	}
	if g.SizeBytes() != 8*16*16*8 {
		t.Errorf("grid3d bytes = %d", g.SizeBytes())
	}
	stag := cfg.Layouts["grid3d_stag"]
	if stag.Dims[0] != 9 {
		t.Errorf("nz+1 resolved to %d", stag.Dims[0])
	}
	prof := cfg.Layouts["profile"]
	if prof.Dims[0] != 16 || prof.Type != Float32 {
		t.Errorf("profile = %+v", prof)
	}
}

func TestParseVariablesAndMeshes(t *testing.T) {
	cfg := mustParse(t)
	v := cfg.Variables["theta"]
	if v == nil || v.Layout.Name != "grid3d" || v.Mesh != "domain" || v.Unit != "K" {
		t.Fatalf("theta = %+v", v)
	}
	m := cfg.Meshes["domain"]
	if m.MeshType != "rectilinear" || len(m.Spacing) != 3 || m.Spacing[2] != 0.5 {
		t.Fatalf("mesh = %+v", m)
	}
	order := cfg.VariableNames()
	if len(order) != 3 || order[0] != "theta" || order[2] != "prof" {
		t.Fatalf("variable order = %v", order)
	}
}

func TestParsePlugins(t *testing.T) {
	cfg := mustParse(t)
	if len(cfg.Plugins) != 2 {
		t.Fatalf("plugins = %+v", cfg.Plugins)
	}
	p := cfg.Plugins[0]
	if p.Name != "visualize" || p.Event != "end_iteration" || p.Config["dir"] != "out" {
		t.Fatalf("plugin 0 = %+v", p)
	}
	if cfg.Plugins[1].Event != "compute_stats" {
		t.Fatalf("plugin 1 = %+v", cfg.Plugins[1])
	}
}

func TestIterationBytes(t *testing.T) {
	cfg := mustParse(t)
	want := 8*16*16*8 + 9*16*16*8 + 16*4
	if got := cfg.IterationBytes(); got != want {
		t.Fatalf("IterationBytes = %d, want %d", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown layout type": `<simulation><data><layout name="l" type="complex128" dimensions="4"/></data></simulation>`,
		"unknown parameter":   `<simulation><data><layout name="l" type="float64" dimensions="bogus"/></data></simulation>`,
		"zero dimension":      `<simulation><data><parameter name="n" value="0"/><layout name="l" type="float64" dimensions="n"/></data></simulation>`,
		"unknown layout ref":  `<simulation><data><variable name="v" layout="nope"/></data></simulation>`,
		"unknown mesh ref": `<simulation><data><layout name="l" type="float64" dimensions="4"/>` +
			`<variable name="v" layout="l" mesh="nope"/></data></simulation>`,
		"bad xml": `<simulation`,
	}
	for name, xml := range cases {
		if _, err := ParseString(xml); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestArchitectureDefaults(t *testing.T) {
	cfg, err := ParseString(`<simulation name="min"><data/></simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.Architecture
	if a.DedicatedCores != 1 || a.BufferSize != 64<<20 || a.QueueSize != 256 {
		t.Fatalf("defaults = %+v", a)
	}
}

func TestTypeSizes(t *testing.T) {
	sizes := map[Type]int{Float32: 4, Float64: 8, Int32: 4, Int64: 8, Uint8: 1, Type("x"): 0}
	for typ, want := range sizes {
		if got := typ.Size(); got != want {
			t.Errorf("%s size = %d, want %d", typ, got, want)
		}
	}
	if Type("nope").Valid() {
		t.Error("invalid type reported valid")
	}
}

// TestLayoutSizeProperty: layout byte size always equals the product of
// dims times element size, for arbitrary dimension values.
func TestLayoutSizeProperty(t *testing.T) {
	if err := quick.Check(func(a, b, c uint8) bool {
		da, db, dc := int(a%32)+1, int(b%32)+1, int(c%32)+1
		l := Layout{Type: Float64, Dims: []int{da, db, dc}}
		return l.SizeBytes() == da*db*dc*8
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockKeyString(t *testing.T) {
	k := BlockKey{Variable: "theta", Source: 3, Iteration: 12}
	if k.String() != "theta/it0012/src0003" {
		t.Fatalf("key = %q", k.String())
	}
}

func TestIndexPutGet(t *testing.T) {
	ix := NewIndex()
	key := BlockKey{Variable: "u", Source: 1, Iteration: 0}
	ix.Put(BlockRef{Key: key, Size: 100})
	ref, ok := ix.Get(key)
	if !ok || ref.Size != 100 {
		t.Fatalf("get = %+v ok=%v", ref, ok)
	}
	if _, ok := ix.Get(BlockKey{Variable: "v"}); ok {
		t.Fatal("found nonexistent block")
	}
	old, replaced := ix.Put(BlockRef{Key: key, Size: 200})
	if !replaced || old.Size != 100 {
		t.Fatalf("replace: old=%+v replaced=%v", old, replaced)
	}
	if ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
}

func TestIndexIterationQueriesSorted(t *testing.T) {
	ix := NewIndex()
	for _, src := range []int{3, 1, 2} {
		for _, v := range []string{"w", "u"} {
			ix.Put(BlockRef{Key: BlockKey{Variable: v, Source: src, Iteration: 7}})
		}
	}
	ix.Put(BlockRef{Key: BlockKey{Variable: "u", Source: 0, Iteration: 8}})
	refs := ix.Iteration(7)
	if len(refs) != 6 {
		t.Fatalf("iteration 7 has %d blocks", len(refs))
	}
	for i := 1; i < len(refs); i++ {
		a, b := refs[i-1].Key, refs[i].Key
		if a.Variable > b.Variable || (a.Variable == b.Variable && a.Source >= b.Source) {
			t.Fatalf("unsorted refs: %v before %v", a, b)
		}
	}
	us := ix.Variable("u", 7)
	if len(us) != 3 || us[0].Key.Source != 1 || us[2].Key.Source != 3 {
		t.Fatalf("Variable(u,7) = %+v", us)
	}
}

func TestIndexRemoveIteration(t *testing.T) {
	ix := NewIndex()
	ix.Put(BlockRef{Key: BlockKey{Variable: "u", Source: 0, Iteration: 1}})
	ix.Put(BlockRef{Key: BlockKey{Variable: "u", Source: 0, Iteration: 2}})
	removed := ix.RemoveIteration(1)
	if len(removed) != 1 || removed[0].Key.Iteration != 1 {
		t.Fatalf("removed = %+v", removed)
	}
	if ix.Len() != 1 {
		t.Fatalf("len after remove = %d", ix.Len())
	}
}

func TestIndexRemoveAll(t *testing.T) {
	ix := NewIndex()
	for it := 0; it < 3; it++ {
		ix.Put(BlockRef{Key: BlockKey{Variable: "u", Source: 0, Iteration: it}})
	}
	if removed := ix.RemoveAll(); len(removed) != 3 || ix.Len() != 0 || len(ix.Iteration(1)) != 0 {
		t.Fatalf("removed %d, %d left", len(removed), ix.Len())
	}
	ix.Put(BlockRef{Key: BlockKey{Variable: "u", Source: 0, Iteration: 1}})
	if ix.Len() != 1 || len(ix.RemoveIteration(1)) != 1 {
		t.Fatalf("index unusable after RemoveAll: len %d", ix.Len())
	}
}

func TestIndexReplaceInPlaceKeepsLen(t *testing.T) {
	ix := NewIndex()
	key := BlockKey{Variable: "u", Source: 1, Iteration: 4}
	for i := 1; i <= 3; i++ {
		ix.Put(BlockRef{Key: key, Size: i})
	}
	ix.Put(BlockRef{Key: BlockKey{Variable: "v", Source: 1, Iteration: 4}})
	if ix.Len() != 2 {
		t.Fatalf("len = %d after replacing one block twice", ix.Len())
	}
	if refs := ix.Iteration(4); len(refs) != 2 || refs[0].Size != 3 {
		t.Fatalf("iteration 4 = %+v", refs)
	}
}

func TestIndexRemoveIterationLeavesOthers(t *testing.T) {
	ix := NewIndex()
	for it := 0; it < 3; it++ {
		for src := 0; src < 4; src++ {
			ix.Put(BlockRef{Key: BlockKey{Variable: "u", Source: src, Iteration: it}})
		}
	}
	if removed := ix.RemoveIteration(1); len(removed) != 4 {
		t.Fatalf("removed %d blocks", len(removed))
	}
	if len(ix.RemoveIteration(1)) != 0 || ix.Len() != 8 {
		t.Fatalf("second remove or len wrong: len = %d", ix.Len())
	}
	for _, it := range []int{0, 2} {
		if n := len(ix.Iteration(it)); n != 4 {
			t.Fatalf("iteration %d lost blocks: %d left", it, n)
		}
		if _, ok := ix.Get(BlockKey{Variable: "u", Source: 3, Iteration: it}); !ok {
			t.Fatalf("iteration %d: Get misses a kept block", it)
		}
	}
}

// TestIndexIterationOrderInterleaved: Puts from several sources and
// iterations, interleaved the way concurrent clients produce them,
// still come back in (variable, source) order per iteration.
func TestIndexIterationOrderInterleaved(t *testing.T) {
	ix := NewIndex()
	vars := []string{"w", "a", "m"}
	for step := 0; step < 3*len(vars); step++ {
		for _, src := range []int{5, 0, 3, 1} {
			ix.Put(BlockRef{Key: BlockKey{Variable: vars[step%len(vars)], Source: src, Iteration: step / len(vars)}})
		}
	}
	for it := 0; it < 3; it++ {
		refs := ix.Iteration(it)
		if len(refs) != 12 {
			t.Fatalf("iteration %d has %d blocks", it, len(refs))
		}
		for i, ref := range refs {
			want := BlockKey{Variable: []string{"a", "m", "w"}[i/4], Source: []int{0, 1, 3, 5}[i%4], Iteration: it}
			if ref.Key != want {
				t.Fatalf("iteration %d position %d: %v, want %v", it, i, ref.Key, want)
			}
		}
	}
}

// TestIndexConcurrent exercises the index's locking under -race: writers
// Put into their own iterations while readers query and remove them.
func TestIndexConcurrent(t *testing.T) {
	ix := NewIndex()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := w; it < 200; it += 4 {
				for src := 0; src < 8; src++ {
					ix.Put(BlockRef{Key: BlockKey{Variable: fmt.Sprint("v", src%3), Source: src, Iteration: it}})
				}
				if n := len(ix.Iteration(it)); n != 8 {
					t.Errorf("iteration %d: %d blocks", it, n)
				}
				ix.Variable("v1", it)
				if n := len(ix.RemoveIteration(it)); n != 8 {
					t.Errorf("iteration %d: removed %d blocks", it, n)
				}
			}
		}()
	}
	wg.Wait()
	if ix.Len() != 0 {
		t.Fatalf("len = %d after every iteration was removed", ix.Len())
	}
}

// BenchmarkIndexIteration is one node's iteration through the index: 32
// Puts, the Iteration query a dedicated core makes, and RemoveIteration.
func BenchmarkIndexIteration(b *testing.B) {
	ix := NewIndex()
	vars := make([]string, 16)
	for i := range vars {
		vars[i] = fmt.Sprint("var", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for src := 0; src < 2; src++ {
			for _, v := range vars {
				ix.Put(BlockRef{Key: BlockKey{Variable: v, Source: src, Iteration: it}, Size: 512})
			}
		}
		if len(ix.Iteration(it)) != 32 || len(ix.RemoveIteration(it)) != 32 {
			b.Fatal("lost blocks")
		}
	}
}
