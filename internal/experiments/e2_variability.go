package experiments

import (
	"fmt"

	"repro/internal/iostrat"
	"repro/internal/stats"
)

// runE2 reproduces §IV.B: the variability of the time each process spends
// writing, per phase and across phases. Paper claims: synchronous
// approaches show gaps of orders of magnitude between the slowest and the
// fastest processes and hundreds of seconds of unpredictability across
// phases, while Damaris cuts the visible write to the ~0.1 s needed to
// copy into shared memory, independent of scale.
func runE2(p *Pass, rep *Report) error {
	opts := p.opts
	perRank := stats.NewTable(
		fmt.Sprintf("per-rank write time distribution at %d cores", opts.maxScale()),
		"approach", "mean_s", "std_s", "cov", "min_s", "max_s", "max/min")
	perPhase := stats.NewTable(
		"per-phase I/O duration across iterations (app-visible)",
		"approach", "mean_s", "std_s", "min_s", "max_s", "range_s")

	top := make(map[iostrat.Approach]iostrat.Result)
	for _, a := range approaches {
		r, err := p.des(a, opts.strategyConfig(opts.maxScale()))
		if err != nil {
			return err
		}
		top[a] = r
		rk := stats.Summarize(r.RankWriteTimes)
		perRank.AddRow(string(a), rk.Mean, rk.Std, rk.CoV(), rk.Min, rk.Max, rk.Spread())
		ph := stats.Summarize(r.IOTimes)
		perPhase.AddRow(string(a), ph.Mean, ph.Std, ph.Min, ph.Max, ph.Max-ph.Min)
	}
	rep.Tables = []*stats.Table{perRank, perPhase}

	// Scale independence of the Damaris write: compare smallest vs largest.
	damSmall, err := p.des(iostrat.Damaris, opts.strategyConfig(opts.Scales[0]))
	if err != nil {
		return err
	}
	smallMean := stats.Summarize(damSmall.RankWriteTimes).Mean
	largeMean := stats.Summarize(top[iostrat.Damaris].RankWriteTimes).Mean
	scaleRatio := 1.0
	if smallMean > 0 {
		scaleRatio = largeMean / smallMean
	}

	fppRank := stats.Summarize(top[iostrat.FilePerProcess].RankWriteTimes)
	collPhase := stats.Summarize(top[iostrat.Collective].IOTimes)
	rep.Checks = []Check{
		{
			// The simulator reproduces one order of magnitude of spread;
			// the paper's "several orders" includes pathologies (hung
			// clients) outside the queueing model. See EXPERIMENTS.md.
			Name:     "FPP slowest/fastest rank gap",
			Paper:    "orders of magnitude between processes (§II, §IV.B)",
			Measured: fppRank.Spread(), Unit: "x", Lo: 8,
		},
		{
			Name:     "collective cross-phase range",
			Paper:    "up to hundreds of seconds of unpredictability (§IV.B)",
			Measured: collPhase.Max - collPhase.Min, Unit: "s", Lo: 50,
		},
		{
			Name:     "Damaris visible write time",
			Paper:    "~0.1 s, time to write into shared memory (§IV.B)",
			Measured: largeMean, Unit: "s", Lo: 0.02, Hi: 0.3,
		},
		{
			Name:     "Damaris write scale independence (9216 vs smallest)",
			Paper:    "does not depend on scale (§IV.B)",
			Measured: scaleRatio, Unit: "x", Lo: 0.8, Hi: 1.25,
		},
		{
			Name:     "Damaris write variability (CoV)",
			Paper:    "perfectly hides the I/O variability (§IV.B)",
			Measured: stats.Summarize(top[iostrat.Damaris].RankWriteTimes).CoV(),
			Unit:     "", Lo: 0, Hi: 0.05,
		},
	}
	return nil
}
