package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/meta"
	"repro/internal/shm"
)

const testXML = `
<simulation name="t">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="1048576"/>
    <queue size="64"/>
  </architecture>
  <data>
    <parameter name="n" value="64"/>
    <layout name="line" type="float64" dimensions="n"/>
    <variable name="u" layout="line"/>
    <variable name="v" layout="line"/>
  </data>
</simulation>`

func testConfig(t *testing.T) *meta.Config {
	t.Helper()
	cfg, err := meta.ParseString(testXML)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func lineData(seed float64) []byte {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = seed + float64(i)
	}
	return compress.Float64Bytes(xs)
}

// collectPlugin records the blocks it sees at each end_iteration.
type collectPlugin struct {
	mu   sync.Mutex
	seen map[int][]meta.BlockKey
	data map[meta.BlockKey]float64 // first element of each block
}

func (p *collectPlugin) Name() string { return "collect" }

func (p *collectPlugin) OnEvent(ctx *PluginContext, ev Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ref := range ctx.Index.Iteration(ev.Iteration) {
		p.seen[ev.Iteration] = append(p.seen[ev.Iteration], ref.Key)
		vals := compress.BytesFloat64(ctx.BlockBytes(ref))
		p.data[ref.Key] = vals[0]
	}
	return nil
}

func newCollect() *collectPlugin {
	return &collectPlugin{seen: map[int][]meta.BlockKey{}, data: map[meta.BlockKey]float64{}}
}

func TestWriteEndIterationPluginFlow(t *testing.T) {
	cp := newCollect()
	node, err := NewNode(testConfig(t), 2, Options{
		ExtraPlugins: map[string][]Plugin{"end_iteration": {cp}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := node.Client(0), node.Client(1)
	for it := 0; it < 3; it++ {
		if err := c0.Write("u", it, lineData(float64(100*it))); err != nil {
			t.Fatal(err)
		}
		if err := c1.Write("u", it, lineData(float64(100*it+1))); err != nil {
			t.Fatal(err)
		}
		if err := c1.Write("v", it, lineData(float64(100*it+2))); err != nil {
			t.Fatal(err)
		}
		c0.EndIteration(it)
		c1.EndIteration(it)
	}
	node.WaitIteration(2)
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 3; it++ {
		if len(cp.seen[it]) != 3 {
			t.Fatalf("iteration %d: plugin saw %d blocks, want 3", it, len(cp.seen[it]))
		}
	}
	// Block contents must be what each client wrote.
	k := meta.BlockKey{Variable: "u", Source: 1, Iteration: 2}
	if cp.data[k] != 201 {
		t.Fatalf("block %v first element = %v, want 201", k, cp.data[k])
	}
	st := node.Stats()
	if st.BlocksWritten != 9 || st.IterationsCompleted != 3 || st.SkippedWrites != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlocksFreedAfterIteration(t *testing.T) {
	node, err := NewNode(testConfig(t), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := node.Client(0)
	for it := 0; it < 50; it++ {
		if err := c.Write("u", it, lineData(1)); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		c.EndIteration(it)
	}
	node.WaitIteration(49)
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := node.Segment().Allocated(); got != 0 {
		t.Fatalf("leaked %d bytes of shared memory", got)
	}
	if node.Index().Len() != 0 {
		t.Fatalf("index still holds %d blocks", node.Index().Len())
	}
}

// TestTakenBlocksStayUntilFreed: blocks a plugin takes hold their
// segment space past the iteration's end, until the plugin frees them;
// later plugins of the event no longer see them.
func TestTakenBlocksStayUntilFreed(t *testing.T) {
	var taken []meta.BlockRef
	var after int
	node, err := NewNode(testConfig(t), 1, Options{ExtraPlugins: map[string][]Plugin{"end_iteration": {
		PluginFunc{PluginName: "take", Fn: func(ctx *PluginContext, ev Event) error {
			taken = append(taken, ctx.Take(ev.Iteration)...)
			return nil
		}},
		PluginFunc{PluginName: "after", Fn: func(ctx *PluginContext, ev Event) error {
			after += len(ctx.Index.Iteration(ev.Iteration))
			return nil
		}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	c := node.Client(0)
	for it := 0; it < 3; it++ {
		if err := c.Write("u", it, lineData(float64(it))); err != nil {
			t.Fatal(err)
		}
		c.EndIteration(it)
	}
	node.WaitIteration(2)
	if len(taken) != 3 || after != 0 {
		t.Fatalf("took %d blocks, later plugin saw %d; want 3, 0", len(taken), after)
	}
	if got, want := node.Segment().Allocated(), int64(3*len(lineData(0))); got != want {
		t.Fatalf("%d bytes allocated with 3 blocks taken, want %d", got, want)
	}
	for _, ref := range taken {
		ref.Data.(*shm.Block).Free()
	}
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := node.Segment().Allocated(); got != 0 {
		t.Fatalf("leaked %d bytes of shared memory", got)
	}
}

// TestShutdownFreesUnfinishedIterations: blocks of an iteration not
// every client ended go back to the segment when the node shuts down.
func TestShutdownFreesUnfinishedIterations(t *testing.T) {
	node, err := NewNode(testConfig(t), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 2; it++ {
		if err := node.Client(0).Write("u", it, lineData(1)); err != nil {
			t.Fatal(err)
		}
		node.Client(0).EndIteration(it)
	}
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got, n := node.Segment().Allocated(), node.Index().Len(); got != 0 || n != 0 {
		t.Fatalf("after shutdown: %d bytes allocated, %d blocks indexed", got, n)
	}
}

func TestWriteValidation(t *testing.T) {
	node, _ := NewNode(testConfig(t), 1, Options{})
	defer node.Shutdown()
	c := node.Client(0)
	if err := c.Write("nope", 0, nil); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := c.Write("u", 0, make([]byte, 7)); err == nil {
		t.Error("wrong size accepted")
	}
}

func TestSkipPolicyWhenSegmentFull(t *testing.T) {
	cfg := testConfig(t)
	cfg.Architecture.BufferSize = 1024 // holds just two 512-byte blocks
	node, err := NewNode(cfg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := node.Client(0)
	// First two writes fit (u and v are 512 bytes each) but the server
	// never frees them because we do not end the iteration; iteration 1
	// must be skipped without blocking.
	if err := c.Write("u", 0, lineData(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("v", 0, lineData(0)); err != nil {
		t.Fatal(err)
	}
	err = c.Write("u", 1, lineData(0))
	if !errors.Is(err, ErrSkipped) {
		t.Fatalf("want ErrSkipped, got %v", err)
	}
	// The rest of the skipped iteration fails fast too.
	if err := c.Write("v", 1, lineData(0)); !errors.Is(err, ErrSkipped) {
		t.Fatalf("want ErrSkipped for second write, got %v", err)
	}
	if node.Stats().SkippedWrites == 0 {
		t.Fatal("skip not counted")
	}
	c.EndIteration(0)
	c.EndIteration(1)
	node.WaitIteration(1)
	node.Shutdown()
}

func TestAllocCommitZeroCopy(t *testing.T) {
	cp := newCollect()
	node, _ := NewNode(testConfig(t), 1, Options{
		ExtraPlugins: map[string][]Plugin{"end_iteration": {cp}},
	})
	c := node.Client(0)
	buf, commit, err := c.Alloc("u", 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, lineData(7))
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	c.EndIteration(0)
	node.WaitIteration(0)
	node.Shutdown()
	k := meta.BlockKey{Variable: "u", Source: 0, Iteration: 0}
	if cp.data[k] != 7 {
		t.Fatalf("zero-copy block content = %v", cp.data[k])
	}
}

func TestSignalTriggersNamedPlugin(t *testing.T) {
	fired := make(chan Event, 1)
	p := PluginFunc{PluginName: "onsig", Fn: func(ctx *PluginContext, ev Event) error {
		fired <- ev
		return nil
	}}
	node, _ := NewNode(testConfig(t), 1, Options{
		ExtraPlugins: map[string][]Plugin{"checkpoint": {p}},
	})
	c := node.Client(0)
	c.Signal("checkpoint", 5)
	node.Shutdown()
	select {
	case ev := <-fired:
		if ev.Name != "checkpoint" || ev.Iteration != 5 {
			t.Fatalf("event = %+v", ev)
		}
	default:
		t.Fatal("signal plugin did not fire")
	}
}

func TestPluginErrorIsolation(t *testing.T) {
	bad := PluginFunc{PluginName: "bad", Fn: func(*PluginContext, Event) error {
		return fmt.Errorf("boom")
	}}
	panicky := PluginFunc{PluginName: "panicky", Fn: func(*PluginContext, Event) error {
		panic("kaboom")
	}}
	good := newCollect()
	node, _ := NewNode(testConfig(t), 1, Options{
		ExtraPlugins: map[string][]Plugin{"end_iteration": {bad, panicky, good}},
	})
	c := node.Client(0)
	c.Write("u", 0, lineData(1))
	c.EndIteration(0)
	node.WaitIteration(0)
	err := node.Shutdown()
	if err == nil {
		t.Fatal("plugin error not surfaced")
	}
	if len(node.Errors()) != 2 {
		t.Fatalf("errors = %v", node.Errors())
	}
	// The good plugin still ran, and the service completed the iteration.
	if len(good.seen[0]) != 1 {
		t.Fatal("good plugin starved by failing ones")
	}
	if node.Stats().PluginErrors != 2 {
		t.Fatalf("plugin error count = %d", node.Stats().PluginErrors)
	}
}

func TestXMLConfiguredPluginResolution(t *testing.T) {
	RegisterPlugin("test-noop", func(cfg map[string]string) (Plugin, error) {
		if cfg["mode"] != "fast" {
			return nil, fmt.Errorf("bad mode")
		}
		return PluginFunc{PluginName: "test-noop", Fn: func(*PluginContext, Event) error { return nil }}, nil
	})
	xml := `<simulation name="t">
	  <data>
	    <layout name="l" type="float64" dimensions="8"/>
	    <variable name="u" layout="l"/>
	  </data>
	  <plugins><plugin name="test-noop" event="end_iteration" mode="fast"/></plugins>
	</simulation>`
	cfg, err := meta.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(cfg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	node.Shutdown()

	// Unregistered plugin names must be rejected at startup.
	xml2 := `<simulation name="t"><data/>
	  <plugins><plugin name="never-registered" event="end_iteration"/></plugins>
	</simulation>`
	cfg2, _ := meta.ParseString(xml2)
	if _, err := NewNode(cfg2, 1, Options{}); err == nil {
		t.Fatal("unregistered plugin accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	const clients = 8
	cfg := testConfig(t)
	cfg.Architecture.BufferSize = 16 << 20
	cp := newCollect()
	node, _ := NewNode(cfg, clients, Options{
		ExtraPlugins: map[string][]Plugin{"end_iteration": {cp}},
	})
	var wg sync.WaitGroup
	for s := 0; s < clients; s++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			c := node.Client(src)
			for it := 0; it < 5; it++ {
				if err := c.Write("u", it, lineData(float64(src))); err != nil {
					t.Errorf("client %d it %d: %v", src, it, err)
				}
				c.EndIteration(it)
			}
		}(s)
	}
	wg.Wait()
	node.WaitIteration(4)
	if err := node.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 5; it++ {
		if len(cp.seen[it]) != clients {
			t.Fatalf("iteration %d saw %d blocks", it, len(cp.seen[it]))
		}
	}
}

func TestRewriteSameKeyReplacesBlock(t *testing.T) {
	node, _ := NewNode(testConfig(t), 1, Options{})
	c := node.Client(0)
	if err := c.Write("u", 0, lineData(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("u", 0, lineData(2)); err != nil {
		t.Fatal(err)
	}
	// Only one block should be live (the old one freed).
	if node.Index().Len() != 1 {
		t.Fatalf("index has %d blocks", node.Index().Len())
	}
	c.EndIteration(0)
	node.WaitIteration(0)
	node.Shutdown()
	if node.Segment().Allocated() != 0 {
		t.Fatal("replaced block leaked")
	}
}

// TestWriteAllocatesOnlyTheBlock: a Write costs one heap allocation,
// the *shm.Block whose identity carries the double-free check — no
// commit closure, no index entry of its own.
func TestWriteAllocatesOnlyTheBlock(t *testing.T) {
	node, err := NewNode(testConfig(t), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Shutdown()
	c, data := node.Client(0), lineData(1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Write("u", 0, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Write allocates %v times, want 1", allocs)
	}
}

func BenchmarkClientWrite(b *testing.B) {
	cfg, _ := meta.ParseString(testXML)
	cfg.Architecture.BufferSize = 64 << 20
	node, _ := NewNode(cfg, 1, Options{})
	defer node.Shutdown()
	c := node.Client(0)
	data := lineData(0)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := c.Write("u", i, data); err != nil {
			b.Fatal(err)
		}
		c.EndIteration(i)
	}
}
