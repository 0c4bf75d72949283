// Package stats provides the summary statistics and table formatting used
// by the experiment harness to report results in the shape of the paper's
// evaluation section.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P95    float64
	P99    float64
}

// CoV returns the coefficient of variation (std/mean), or 0 for an empty or
// zero-mean sample.
func (s Summary) CoV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// Spread returns max/min, the paper's "gap between the slowest and the
// fastest processes". It returns +Inf when min is zero but max is not.
func (s Summary) Spread() float64 {
	if s.Min == 0 {
		if s.Max == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// Summarize computes the summary statistics of xs. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 { // guard against rounding
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Percentile(sorted, 50),
		P95:    Percentile(sorted, 95),
		P99:    Percentile(sorted, 99),
	}
}

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs (interpolated, 0 if
// empty) without assuming the input is sorted. Prefer it over Mean
// when a series is exposed to the PFS model's heavy-tailed straggler
// episodes: one Pareto draw can move a mean by an order of magnitude
// while the median still ranks the underlying configurations.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 50)
}

// Mean returns the arithmetic mean of xs, 0 if empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, 0 if fewer
// than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Max returns the maximum of xs, 0 if empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, 0 if empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Table accumulates rows and renders them with aligned columns, in the
// style of the tables the experiment harness prints.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFloat renders a float compactly: three significant decimals for
// small magnitudes, fewer for large ones.
func FormatFloat(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	case a >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// GB formats a byte count in gigabytes (base 10⁹, as storage vendors and
// the paper use).
func GB(bytes float64) float64 { return bytes / 1e9 }
