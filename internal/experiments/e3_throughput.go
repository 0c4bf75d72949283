package experiments

import (
	"fmt"

	"repro/internal/iostrat"
	"repro/internal/stats"
)

// runE3 reproduces §IV.C: achieved aggregate write throughput at the
// largest scale. Paper claims on Kraken: 0.5 GB/s with collective I/O,
// less than 1.7 GB/s with file-per-process, up to 10 GB/s with Damaris.
func runE3(p *Pass, rep *Report) error {
	opts := p.opts
	cores := opts.maxScale()
	table := stats.NewTable(
		fmt.Sprintf("achieved aggregate throughput at %d cores (%s)", cores, opts.Platform),
		"approach", "GB_written", "io_window_s", "throughput_GB_s", "files")

	byApproach := make(map[iostrat.Approach]iostrat.Result)
	cfg := opts.strategyConfig(cores)
	for _, a := range approaches {
		r, err := p.des(a, cfg)
		if err != nil {
			return err
		}
		byApproach[a] = r
		table.AddRow(string(a), stats.GB(r.BytesWritten), r.IOWindow,
			stats.GB(r.Throughput()), r.FilesCreated)
	}
	rep.Tables = []*stats.Table{table}

	coll := stats.GB(byApproach[iostrat.Collective].Throughput())
	fpp := stats.GB(byApproach[iostrat.FilePerProcess].Throughput())
	dam := stats.GB(byApproach[iostrat.Damaris].Throughput())
	rep.Checks = []Check{
		{
			Name:     "collective throughput",
			Paper:    "as low as 0.5 GB/s (§IV.C)",
			Measured: coll, Unit: "GB/s", Lo: 0.25, Hi: 0.8,
		},
		{
			Name:     "file-per-process throughput",
			Paper:    "less than 1.7 GB/s (§IV.C)",
			Measured: fpp, Unit: "GB/s", Lo: 0.8, Hi: 1.7,
		},
		{
			Name:     "Damaris throughput",
			Paper:    "up to 10 GB/s (§IV.C)",
			Measured: dam, Unit: "GB/s", Lo: 7, Hi: 13,
		},
		{
			Name:     "ordering collective < FPP < Damaris",
			Paper:    "Damaris makes a more efficient use of storage (§IV.C)",
			Measured: boolAsFloat(coll < fpp && fpp < dam), Unit: "", Lo: 1, Hi: 1,
		},
	}
	return nil
}

// boolAsFloat turns a pass/fail condition into a Check's Measured value.
func boolAsFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
