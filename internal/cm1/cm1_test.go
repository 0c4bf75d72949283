package cm1

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.DT = 2 // CFL violation at U=1, DX=1
	if err := bad.Validate(); err == nil {
		t.Fatal("unstable params accepted")
	}
	tiny := DefaultParams()
	tiny.NX = 1
	if err := tiny.Validate(); err == nil {
		t.Fatal("tiny grid accepted")
	}
}

func TestInitialBubble(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	th := m.Theta()
	max, min := th.Data[0], th.Data[0]
	for _, v := range th.Data {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if min < 299.999 || min > 300.001 {
		t.Fatalf("background theta = %v", min)
	}
	if max < 301 || max > 302.001 {
		t.Fatalf("bubble peak = %v, want ≈ 302", max)
	}
}

func TestMassConservationSerial(t *testing.T) {
	m, _ := New(DefaultParams())
	before := m.Mass()
	for s := 0; s < 50; s++ {
		m.Step()
	}
	after := m.Mass()
	if rel := math.Abs(after-before) / before; rel > 1e-12 {
		t.Fatalf("theta mass drifted by %v", rel)
	}
	if m.Iteration() != 50 {
		t.Fatalf("iteration = %d", m.Iteration())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		m, _ := New(DefaultParams())
		for s := 0; s < 25; s++ {
			m.Step()
		}
		return m.Checksum()
	}
	if run() != run() {
		t.Fatal("serial run not deterministic")
	}
}

func TestBubbleAdvectsDownwind(t *testing.T) {
	p := DefaultParams()
	p.Nu = 0 // pure advection keeps the bubble tight
	m, _ := New(p)
	peakX := func() int {
		best, bi := -1.0, 0
		th := m.Theta()
		k, j := p.NZ/3, p.NY/2
		for i := 0; i < p.NX; i++ {
			if v := th.At(k, j, i); v > best {
				best, bi = v, i
			}
		}
		return bi
	}
	x0 := peakX()
	for s := 0; s < 20; s++ { // 20 steps × U·DT/DX = 4 cells
		m.Step()
	}
	x1 := peakX()
	moved := (x1 - x0 + p.NX) % p.NX
	if moved < 2 || moved > 6 {
		t.Fatalf("bubble moved %d cells downwind, want ≈ 4", moved)
	}
}

func TestBuoyancyLiftsBubble(t *testing.T) {
	m, _ := New(DefaultParams())
	for s := 0; s < 10; s++ {
		m.Step()
	}
	// w must be positive where the bubble is and ≈0 far away.
	p := m.P
	wAtBubble := m.w.At(p.NZ/3, p.NY/2, p.NX/2)
	wFar := m.w.At(p.NZ-1, 0, 0)
	if wAtBubble <= 0 {
		t.Fatalf("no updraft at bubble: w = %v", wAtBubble)
	}
	if math.Abs(wFar) > wAtBubble/10 {
		t.Fatalf("spurious vertical motion far from bubble: %v vs %v", wFar, wAtBubble)
	}
}

func TestFieldsStableOrder(t *testing.T) {
	m, _ := New(DefaultParams())
	fs := m.Fields()
	if len(fs) != 3 || fs[0].Name != "theta" || fs[1].Name != "qv" || fs[2].Name != "w" {
		t.Fatalf("fields = %v", fs)
	}
	for _, f := range fs {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkStep(b *testing.B) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 32, 32, 24
	m, _ := New(p)
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
