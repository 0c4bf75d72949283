package experiments

import (
	"repro/internal/iostrat"
	"repro/internal/stats"
)

// runE4 reproduces §IV.D's first claim: dedicated cores stay idle 92–99 %
// of the time on Kraken with CM1, leaving room for in-situ processing.
func runE4(p *Pass, rep *Report) error {
	opts := p.opts
	table := stats.NewTable(
		"dedicated-core utilization across the weak-scaling sweep",
		"cores", "busy_core_s", "avail_core_s", "idle_frac", "skipped_iters")

	var minIdle, maxIdle float64 = 1, 0
	for _, cores := range opts.Scales {
		r, err := p.des(iostrat.Damaris, opts.strategyConfig(cores))
		if err != nil {
			return err
		}
		idle := r.IdleFraction()
		if idle < minIdle {
			minIdle = idle
		}
		if idle > maxIdle {
			maxIdle = idle
		}
		table.AddRow(cores, r.DedicatedBusy, r.DedicatedTotal, idle, r.SkippedIters)
	}
	rep.Tables = []*stats.Table{table}
	rep.Checks = []Check{
		{
			Name:     "minimum idle fraction across scales",
			Paper:    "idle time ranges from 92% to 99% (§IV.D)",
			Measured: minIdle, Unit: "", Lo: 0.85, Hi: 1,
		},
		{
			Name:     "maximum idle fraction across scales",
			Paper:    "idle time ranges from 92% to 99% (§IV.D)",
			Measured: maxIdle, Unit: "", Lo: 0.9, Hi: 0.999,
		},
	}
	return nil
}
