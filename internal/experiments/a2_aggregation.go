package experiments

import (
	"fmt"

	"repro/internal/iostrat"
	"repro/internal/stats"
)

// runA2 is the aggregation-granularity ablation behind the design choice
// of §IV.B/§IV.C: Damaris groups the output of a whole node into one big
// file. Fragmenting the same volume into more, smaller files per
// iteration pays the per-file cost repeatedly and degrades throughput —
// toward the file-per-process regime.
func runA2(p *Pass, rep *Report) error {
	opts := p.opts
	cores := opts.maxScale()
	plat := opts.platformFor(cores)
	table := stats.NewTable(
		fmt.Sprintf("Damaris throughput vs output fragmentation at %d cores", cores),
		"files_per_iter", "file_MB", "throughput_GB_s")

	granularities := []int{1, 2, 4, plat.CoresPerNode - 1}
	nodeBytes := iostrat.CM1Workload(1).NodeBytes(plat.CoresPerNode)
	var first, last float64
	for i, g := range granularities {
		cfg := opts.strategyConfig(cores)
		cfg.FilesPerIter = g
		r, err := p.des(iostrat.Damaris, cfg)
		if err != nil {
			return err
		}
		tp := r.Throughput()
		if i == 0 {
			first = tp
		}
		last = tp
		table.AddRow(g, nodeBytes/float64(g)/1e6, stats.GB(tp))
	}
	rep.Tables = []*stats.Table{table}
	rep.Checks = []Check{
		{
			Name:     "aggregated (1 file) vs fragmented (per-core files)",
			Paper:    "group output into bigger files (§IV.B)",
			Measured: first / last, Unit: "x", Lo: 1.2,
		},
	}
	return nil
}
