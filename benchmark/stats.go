package main

import (
	"math"
	"slices"
	"sort"
)

// The benchmark keeps its own few lines of statistics instead of using
// internal/stats: the ruler's arithmetic must not change when the
// program it measures is refactored.

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bestQuarterMean returns the mean of the best quarter of xs (at least
// one value): the highest values where higher is better, the lowest
// where lower is; 0 for an empty slice. It is what a run reports for its
// timed rounds. On the shared sandbox a neighbour's load only ever slows
// a round down, and it comes in bursts, so the slower rounds of a run say
// more about the neighbours than about the program: when the host
// changed speed half-way through ten runs of tenants-small, the runs'
// medians spread by 20-23 % and their best-quarter means by 12-14 %; in
// steady hours the two spread alike (3-10 %) on every workload.
func bestQuarterMean(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if better == "higher" {
		slices.Reverse(s)
	}
	k := max(1, (len(s)+2)/4)
	sum := 0.0
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

// tailLevels are the percentiles a timing may be reported at, ascending,
// in hundredths of a percent so the sample arithmetic stays in integers.
var tailLevels = []int{9000, 9500, 9900, 9990, 9999}

// tailPercentile picks the highest reportable percentile for n samples:
// the highest level with at least ten samples beyond it. ok is false
// when even p90 has fewer than ten samples beyond it (n < 100), in which
// case only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, level := range tailLevels {
		// Whole samples strictly beyond the nearest-rank position.
		rank := (n*level + 9999) / 10000
		if n-rank >= 10 {
			p, ok = float64(level)/100, true
		}
	}
	return p, ok
}

// durSamples is a set of durations in nanoseconds.
type durSamples []int64

// sorted returns the samples ascending: d itself when it already is (so
// sorting a large set once in place makes every later call cheap), a
// sorted copy otherwise.
func (d durSamples) sorted() durSamples {
	if slices.IsSorted(d) {
		return d
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// at returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted set, in units of div nanoseconds.
func (d durSamples) at(p, div float64) float64 {
	if len(d) == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p/100*float64(len(d)))), 1), len(d))
	return float64(d[rank-1]) / div
}

// p50 returns the median in units of div nanoseconds.
func (d durSamples) p50(div float64) float64 { return d.sorted().at(50, div) }

// tail returns the named percentile when the sample count supports it
// under the ten-beyond rule, and otherwise the highest one that does
// (the median when none does). The returned level says which.
func (d durSamples) tail(want, div float64) (value, level float64) {
	level = 50
	if p, ok := tailPercentile(len(d)); ok {
		level = math.Min(p, want)
	}
	return d.sorted().at(level, div), level
}

// iqrSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method) — the
// steadiness figure the benchmark's bounds are judged against.
func iqrSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
