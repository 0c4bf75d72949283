package experiments

import (
	"fmt"
	"slices"

	"repro/internal/iostrat"
	"repro/internal/stats"
)

// approaches in presentation order.
var approaches = []iostrat.Approach{iostrat.FilePerProcess, iostrat.Collective, iostrat.Damaris}

// runE1 reproduces §IV.A: CM1 weak scaling under the three I/O
// approaches. Paper claims: the collective I/O phase reaches 800 s — 70 %
// of the run time — at 9216 cores; Damaris scales nearly perfectly since
// its I/O is asynchronous; the speedup over collective I/O reaches 3.5×.
func runE1(p *Pass, rep *Report) error {
	opts := p.opts
	table := stats.NewTable(
		fmt.Sprintf("run time per approach, %s, %d output phases", opts.Platform, opts.Iterations),
		"cores", "approach", "total_s", "mean_io_s", "max_io_s", "io_frac", "thr_GB_s",
		"speedup_vs_collective")

	// results indexes the legs by [scale][approach].
	results := make(map[int]map[iostrat.Approach]iostrat.Result)
	for _, cores := range opts.Scales {
		byApproach := make(map[iostrat.Approach]iostrat.Result, len(approaches))
		cfg := opts.strategyConfig(cores)
		for _, a := range approaches {
			r, err := p.des(a, cfg)
			if err != nil {
				return err
			}
			byApproach[a] = r
		}
		results[cores] = byApproach
		coll := byApproach[iostrat.Collective]
		for _, a := range approaches {
			r := byApproach[a]
			table.AddRow(cores, string(a), r.TotalTime, r.MeanIOTime(), r.MaxIOTime(),
				r.IOFraction(), stats.GB(r.Throughput()), coll.TotalTime/r.TotalTime)
		}
	}
	rep.Tables = []*stats.Table{table}

	top := results[opts.maxScale()]
	coll, dam := top[iostrat.Collective], top[iostrat.Damaris]
	// The absolute §IV.A numbers (800 s collective phases, 3.5× speedup)
	// are contention phenomena of the 9216-core machine, so a sweep that
	// tops out at another scale MISSes them.
	rep.Checks = []Check{
		{
			Name:     "collective max I/O phase at top scale",
			Paper:    "up to 800 s (§IV.A)",
			Measured: coll.MaxIOTime(), Unit: "s", Lo: 450, Hi: 1300,
		},
		{
			Name:     "collective I/O fraction of run time",
			Paper:    "70% of overall run time (§IV.A)",
			Measured: coll.IOFraction(), Unit: "", Lo: 0.55, Hi: 0.85,
		},
		{
			Name:     "Damaris speedup vs collective",
			Paper:    "3.5x on Kraken (§IV.A)",
			Measured: coll.TotalTime / dam.TotalTime, Unit: "x", Lo: 2.8, Hi: 4.2,
		},
		{
			Name:     "Damaris visible I/O phase at top scale",
			Paper:    "asynchronous, hidden (§IV.A)",
			Measured: dam.MeanIOTime(), Unit: "s", Lo: 0, Hi: 0.5,
		},
		{
			Name:     "Damaris scalability (runtime growth across sweep)",
			Paper:    "nearly perfect weak scalability (§IV.A)",
			Measured: damarisGrowth(results, opts.Scales), Unit: "x", Lo: 0.9, Hi: 1.15,
		},
	}
	return nil
}

// damarisGrowth returns the ratio of Damaris run time at the largest scale
// to the smallest — 1.0 is perfect weak scaling.
func damarisGrowth(results map[int]map[iostrat.Approach]iostrat.Result, scales []int) float64 {
	small := results[slices.Min(scales)][iostrat.Damaris].TotalTime
	large := results[slices.Max(scales)][iostrat.Damaris].TotalTime
	if small == 0 {
		return 0
	}
	return large / small
}
