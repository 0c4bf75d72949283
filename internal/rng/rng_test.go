package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical identity diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("distinct streams produced %d identical 64-bit draws out of 1000", same)
	}
}

func TestNamedStableUnderDraws(t *testing.T) {
	a := New(1, 1)
	c1 := a.Named("jitter")
	a.Uint64() // advance the parent
	c2 := New(1, 1).Named("jitter")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Named stream depends on the parent's draw position")
		}
	}
}

func TestChildDistinct(t *testing.T) {
	root := New(9, 0)
	a := root.Child(1)
	b := root.Child(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("children with distinct ids produced identical sequences")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3, 3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4, 4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ≈ 0.5", m)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5, 5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values, want 7", len(seen))
	}
}

// intnRejection is Intn as the plain rejection formula: compute the
// largest multiple of n below 2^64 and redraw any value at or above it.
func intnRejection(s *Stream, n int) int {
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// TestIntnMatchesRejectionFormula holds Intn to the rejection formula:
// the same values, and the stream left in the same state, for small n
// and for n large enough that draws are rejected often (2^62+1 and
// 3·2^61 reject about one draw in four).
func TestIntnMatchesRejectionFormula(t *testing.T) {
	ns := []int{1, 2, 3, 7, 336, 1 << 31, 1<<32 + 1, 1<<62 + 1, 3 << 61, math.MaxInt64 - 1, math.MaxInt64}
	for seed := uint64(0); seed < 50; seed++ {
		for _, n := range ns {
			got, want := New(seed, 11), New(seed, 11)
			for i := 0; i < 20000; i++ {
				if g, w := got.Intn(n), intnRejection(want, n); g != w {
					t.Fatalf("seed %d: draw %d of Intn(%d) = %d, want %d", seed, i, n, g, w)
				}
			}
			if *got != *want {
				t.Fatalf("seed %d: Intn(%d) left the stream at %+v, want %+v", seed, n, *got, *want)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(6, 6)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(7, 7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exponential(3.5)
	}
	if m := sum / n; math.Abs(m-3.5) > 0.05 {
		t.Fatalf("exponential mean = %v, want ≈ 3.5", m)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(8, 8)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈ 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("normal variance = %v, want ≈ 9", variance)
	}
}

func TestUnitLogNormalMeanIsOne(t *testing.T) {
	s := New(9, 9)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.UnitLogNormal(0.5)
	}
	if m := sum / n; math.Abs(m-1) > 0.02 {
		t.Fatalf("unit log-normal mean = %v, want ≈ 1", m)
	}
}

func TestParetoBound(t *testing.T) {
	s := New(10, 10)
	for i := 0; i < 100000; i++ {
		if v := s.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2, 1.5) = %v below scale", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	s := New(11, 11)
	big := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Pareto(1, 1.1) > 20 {
			big++
		}
	}
	// P(X > 20) = 20^-1.1 ≈ 0.037; allow a generous band.
	if big < n/100 || big > n/10 {
		t.Fatalf("tail mass P(X>20) ≈ %v, want ≈ 0.037", float64(big)/n)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}
