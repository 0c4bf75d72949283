package storage

import (
	"math"
	"testing"

	"repro/internal/des"
)

// forwardProbe is a memory cost model that records what a layer above
// it forwards and the last future it handed out.
type forwardProbe struct {
	CostModel
	forwarded []float64
	last      *des.Future
}

func (m *forwardProbe) Write(target int, bytes float64, pat Pattern, k func()) {
	m.forwarded = append(m.forwarded, bytes)
	m.CostModel.Write(target, bytes, pat, k)
}

func (m *forwardProbe) WriteAsync(target int, bytes float64, pat Pattern) *des.Future {
	m.forwarded = append(m.forwarded, bytes)
	m.last = m.CostModel.WriteAsync(target, bytes, pat)
	return m.last
}

func (m *forwardProbe) Read(target int, bytes float64, pat Pattern, k func()) {
	m.forwarded = append(m.forwarded, bytes)
	m.CostModel.Read(target, bytes, pat, k)
}

func (m *forwardProbe) ReadAsync(target int, bytes float64, pat Pattern) *des.Future {
	m.forwarded = append(m.forwarded, bytes)
	m.last = m.CostModel.ReadAsync(target, bytes, pat)
	return m.last
}

// TestReduceBlockingAndAsyncAgree: through one layer, the blocking and
// the async form of a transfer take the same virtual time — the layer's
// CPU plus the inner transfer of the forwarded volume — and forward the
// same bytes; the async form finds its engine through the model it
// wraps. A layer that costs no CPU hands back the inner model's own
// future: no extra process.
func TestReduceBlockingAndAsyncAgree(t *testing.T) {
	const raw, writeCPU, readCPU = 64e6, 0.25, 0.125
	eng := des.NewEngine()
	probe := &forwardProbe{CostModel: NewMemory(eng, 4, 1e8)}
	priced := 0 // a layer keeps its ledger in its cost functions: once per transfer
	layer := Reduce(probe,
		func(b float64) (float64, float64) { priced++; return writeCPU, b / 4 },
		func(b float64) (float64, float64) { priced++; return readCPU, b / 2 })
	free := Reduce(probe,
		func(b float64) (float64, float64) { return 0, b / 4 },
		func(b float64) (float64, float64) { return 0, b / 2 })

	var took [4]float64
	eng.Spawn("dedicated", func(p *des.Proc) {
		steps := []func(){
			func() { p.Do(func(k func()) { layer.Write(0, raw, BigSequential, k) }) },
			func() { p.Do(layer.WriteAsync(0, raw, BigSequential).Then) },
			func() { p.Do(func(k func()) { layer.Read(0, raw, BigSequential, k) }) },
			func() { p.Do(layer.ReadAsync(0, raw, BigSequential).Then) },
		}
		for i, step := range steps {
			t0 := p.Now()
			step()
			took[i] = p.Now() - t0
		}
		if f := layer.WriteAsync(1, raw, BigSequential); f == probe.last {
			t.Error("a layer with CPU to charge returned the inner future: CPU not in the async path")
		} else {
			p.Do(f.Then)
		}
		if f := free.WriteAsync(1, raw, BigSequential); f != probe.last {
			t.Error("zero-CPU write spawned a process instead of returning the inner future")
		} else {
			p.Do(f.Then)
		}
		if f := free.ReadAsync(1, raw, BigSequential); f != probe.last {
			t.Error("zero-CPU read spawned a process instead of returning the inner future")
		} else {
			p.Do(f.Then)
		}
	})
	eng.Run()

	plain := func(bytes float64) float64 { // inner transfer time on an idle target
		e := des.NewEngine()
		m := NewMemory(e, 4, 1e8)
		e.Spawn("w", func(p *des.Proc) { p.Do(func(k func()) { m.Write(0, bytes, BigSequential, k) }) })
		return e.Run()
	}
	wantWrite, wantRead := writeCPU+plain(raw/4), readCPU+plain(raw/2)
	for i, want := range []float64{wantWrite, wantWrite, wantRead, wantRead} {
		if math.Abs(took[i]-want) > 1e-9 {
			t.Errorf("step %d took %v, want %v", i, took[i], want)
		}
	}
	wantFwd := []float64{raw / 4, raw / 4, raw / 2, raw / 2, raw / 4, raw / 4, raw / 2}
	if len(probe.forwarded) != len(wantFwd) {
		t.Fatalf("forwarded %v, want %v", probe.forwarded, wantFwd)
	}
	for i, want := range wantFwd {
		if probe.forwarded[i] != want {
			t.Errorf("transfer %d forwarded %v bytes, want %v", i, probe.forwarded[i], want)
		}
	}
	if priced != 5 {
		t.Errorf("cost functions called %d times for 5 transfers", priced)
	}
}
