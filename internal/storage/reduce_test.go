package storage

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// forwardProbe is a cost model that records what a layer above it
// forwards and the last future it handed out.
type forwardProbe struct {
	CostModel
	forwarded []float64
	last      *des.Future
}

func (m *forwardProbe) seen(bytes float64, f *des.Future) *des.Future {
	m.forwarded, m.last = append(m.forwarded, bytes), f
	return f
}

func (m *forwardProbe) Write(target int, bytes float64, pat Pattern) *des.Future {
	return m.seen(bytes, m.CostModel.Write(target, bytes, pat))
}

func (m *forwardProbe) WriteChunk(target int, bytes float64, pat Pattern) *des.Future {
	return m.seen(bytes, m.CostModel.WriteChunk(target, bytes, pat))
}

func (m *forwardProbe) Read(target int, bytes float64, pat Pattern) *des.Future {
	return m.seen(bytes, m.CostModel.Read(target, bytes, pat))
}

// TestTransferFutures: every transfer of the cost face returns its
// future. On the PFS model, the flat model and a reduction layer over
// each, a zero-byte transfer's future is already complete, and a
// positive one completes once, at its priced time on an idle target:
// the layer's CPU plus the inner transfer of the forwarded volume, with
// the per-file overhead charged by Write and Read and not by
// WriteChunk. A layer calls its cost function once per transfer and
// forwards what it returns; one that costs no CPU hands back the inner
// model's own future.
func TestTransferFutures(t *testing.T) {
	const bw, raw, cpu = 1e8, 64e6, 0.25
	quiet := testPlatform().PFS
	quiet.OSTBandwidth, quiet.JitterSigma, quiet.HeavyTailProb, quiet.CongestionSigma = bw, 0, 0, 0
	bases := []struct {
		name     string
		overhead float64 // the per-file overhead, in seconds
		build    func(*des.Engine) CostModel
	}{
		{"pfs", quiet.FileOverhead, func(e *des.Engine) CostModel { return NewPFS(e, quiet, rng.New(7, 1)) }},
		{"flat", newSimModel(nil, 1, bw).overhead, func(e *des.Engine) CostModel { return NewMemory(e, 4, bw) }},
	}
	layers := []struct {
		name string
		cpu  float64 // per positive transfer; -1: no layer
	}{{"", -1}, {"/reduce", cpu}, {"/reduce-free", 0}}
	transfers := []struct {
		name     string
		overhead bool
		io       func(CostModel) func(int, float64, Pattern) *des.Future
	}{
		{"write", true, func(m CostModel) func(int, float64, Pattern) *des.Future { return m.Write }},
		{"chunk", false, func(m CostModel) func(int, float64, Pattern) *des.Future { return m.WriteChunk }},
		{"read", true, func(m CostModel) func(int, float64, Pattern) *des.Future { return m.Read }},
	}
	for _, base := range bases {
		for _, layer := range layers {
			for _, tr := range transfers {
				t.Run(base.name+layer.name+"/"+tr.name, func(t *testing.T) {
					eng := des.NewEngine()
					probe := &forwardProbe{CostModel: base.build(eng)}
					m, fwd, want, priced := CostModel(probe), raw, raw/bw, 0
					if tr.overhead {
						want += base.overhead
					}
					if layer.cpu >= 0 {
						// A layer's cost functions charge nothing for nothing.
						half := func(b float64) (float64, float64) {
							priced++
							if b <= 0 {
								return 0, b
							}
							return layer.cpu, b / 2
						}
						m, fwd, want = Reduce(probe, half, half), raw/2, layer.cpu+raw/2/bw+want-raw/bw
					}
					io := tr.io(m)
					if f := io(0, 0, BigSequential); !f.Done() {
						t.Error("a zero-byte transfer's future is not complete")
					}
					f := io(1, raw, BigSequential)
					if inner := f == probe.last; inner != (layer.cpu <= 0) {
						t.Errorf("the transfer's future is the inner model's: %v", inner)
					}
					fired, at := 0, 0.0
					f.Then(func() { fired, at = fired+1, eng.Now() })
					eng.Run()
					if fired != 1 || math.Abs(at-want) > 1e-9 {
						t.Errorf("completed %d times, at %v; want once, at %v", fired, at, want)
					}
					if n := len(probe.forwarded); n != 2 || probe.forwarded[1] != fwd {
						t.Errorf("forwarded %v, want [0 %v]", probe.forwarded, fwd)
					}
					if layer.cpu >= 0 && priced != 2 {
						t.Errorf("cost function called %d times for 2 transfers", priced)
					}
				})
			}
		}
	}
}
