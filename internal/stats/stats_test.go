package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2), 1e-12) {
		t.Fatalf("std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Spread() != 1 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSpread(t *testing.T) {
	s := Summarize([]float64{0.5, 5})
	if s.Spread() != 10 {
		t.Fatalf("spread = %v, want 10", s.Spread())
	}
	if !math.IsInf(Summarize([]float64{0, 1}).Spread(), 1) {
		t.Fatal("spread with zero min should be +Inf")
	}
}

func TestCoV(t *testing.T) {
	s := Summarize([]float64{2, 2, 2, 2})
	if s.CoV() != 0 {
		t.Fatalf("CoV of constant sample = %v", s.CoV())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 50); p != 25 {
		t.Fatalf("P50 = %v, want 25", p)
	}
	if p := Percentile(sorted, 0); p != 10 {
		t.Fatalf("P0 = %v, want 10", p)
	}
	if p := Percentile(sorted, 100); p != 40 {
		t.Fatalf("P100 = %v, want 40", p)
	}
}

func TestPercentileProperties(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		p25 := Percentile(xs, 25)
		p75 := Percentile(xs, 75)
		return p25 <= p75 && p25 >= xs[0] && p75 <= xs[len(xs)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 || Mean(xs) != 3 {
		t.Fatalf("min/max/mean = %v/%v/%v", Min(xs), Max(xs), Mean(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T", "approach", "GB/s")
	tb.AddRow("collective", 0.5)
	tb.AddRow("damaris", 10.0)
	out := tb.String()
	for _, want := range []string{"T", "approach", "collective", "damaris", "0.500", "10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2)
	want := "a,b\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		12345:   "12345",
		12345.6: "12346",
		12.34:   "12.3",
		0.5:     "0.500",
		0.0001:  "1.00e-04",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
