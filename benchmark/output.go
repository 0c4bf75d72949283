package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's verdict, printed as the last line of standard
// output: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record of a run, written next to the span file.
type report struct {
	Workload    string                 `json:"workload"`
	Why         string                 `json:"why"`
	Seed        uint64                 `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Env         environment            `json:"env"`
	Note        string                 `json:"note"`
	Fingerprint string                 `json:"payload_fingerprint"`
	SetupS      []float64              `json:"setup_s_samples"`
	Rounds      []roundValues          `json:"rounds"`
	Counts      roundCounts            `json:"counts_per_round"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Budget      []budgetRow            `json:"budget,omitempty"`
	PhaseTail   tailReport             `json:"client_phase_us_tail"`
	SpanFile    string                 `json:"span_file,omitempty"`
	Result      resultLine             `json:"result"`
	Failures    []string               `json:"failures,omitempty"`
}

// tailReport is a timing's highest reportable percentile.
type tailReport struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

const sandboxNote = "numbers are this sandbox's, not a storage device's: the store is a directory of the local filesystem and no flush policy is changed"

// buildReport assembles a run's metrics.
func buildReport(o *runOutcome) *report {
	s := o.cfg.spec
	rep := &report{
		Workload: s.name, Why: s.why, Seed: o.cfg.seed, Seconds: o.cfg.seconds, Trace: o.cfg.trace,
		Env: o.env, Note: sandboxNote, Fingerprint: fmt.Sprintf("%016x", o.fingerprint),
		SetupS: o.setupS, Rounds: o.rounds, Counts: o.counts, SpanFile: o.spanFile, Failures: o.failures,
		EndToEnd: map[string]metricValue{},
	}
	for _, d := range endToEnd {
		rep.EndToEnd[d.Name] = metricValue{o.value(d), d.Unit}
	}
	slices.Sort(o.phaseAll) // read here and by the per-layer metrics; sorted once
	if !s.des {
		v, level := o.phaseAll.tail(99.99, 1e3)
		rep.PhaseTail = tailReport{Percentile: level, Value: v, Samples: len(o.phaseAll)}
	}
	rep.Result = resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: rep.EndToEnd}
	if o.cfg.trace {
		values := o.layers.metrics(o.phaseAll)
		for name, v := range o.kernels {
			values[name] = v
		}
		values["trace.overhead_frac"] = o.overheadFrac()
		values["failed_frac"] = o.failedFrac()
		rep.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			rep.PerLayer[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		if !s.des {
			rep.Budget = o.layers.budget()
		}
		rep.Result.Metrics = rep.PerLayer
	}
	return rep
}

// printReport writes the human-readable report: every metric by name
// with its unit.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "benchmark %s  seed=%d  seconds=%g  trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "  why: %s\n", rep.Why)
	e := rep.Env
	fmt.Fprintf(w, "  env: nproc=%d GOMAXPROCS=%d %s %s/%s, store %s (%s)\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.StoreDir, e.StoreFS)
	fmt.Fprintf(w, "  note: %s\n", rep.Note)
	fmt.Fprintf(w, "  payload fingerprint %s; %d timed rounds after %d set-ups with a warm-up round each\n",
		rep.Fingerprint, len(rep.Rounds), len(rep.SetupS))

	fmt.Fprintf(w, "\nend-to-end (mean of the best quarter of the untraced timed rounds, median of the set-ups; per-round values follow)\n")
	for _, d := range endToEnd {
		var per []string
		if d.Name == "setup_s" {
			for _, v := range rep.SetupS {
				per = append(per, fmt.Sprintf("%.4g", v))
			}
		} else {
			for _, r := range rep.Rounds {
				if !r.Traced {
					per = append(per, fmt.Sprintf("%.4g", r.Metrics[d.Name]))
				}
			}
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s-is-better bound %g  [%s]\n",
			d.Name, rep.EndToEnd[d.Name].Value, d.Unit, d.Better, d.Bound, strings.Join(per, " "))
	}
	if t := rep.PhaseTail; t.Samples > 0 {
		fmt.Fprintf(w, "  client_phase_us p%g = %.4g us over %d samples (highest percentile with at least 10 samples beyond it)\n",
			t.Percentile, t.Value, t.Samples)
	}
	fmt.Fprintf(w, "  failed_frac = %d failed / %d attempted\n", rep.Result.Failed, rep.Result.Attempted)

	if rep.PerLayer != nil {
		fmt.Fprintf(w, "\nper-layer (traced rounds alternate with untraced ones; kernels are single-goroutine)\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, rep.PerLayer[d.Name].Value, d.Unit)
		}
		if len(rep.Budget) > 0 {
			fmt.Fprintf(w, "\nwhere a byte's microseconds go (median per root per iteration)\n")
			fmt.Fprintf(w, "  %-52s %-38s %10s %16s\n", "stage", "layers", "p50 ms", "us per user MiB")
			for _, b := range rep.Budget {
				fmt.Fprintf(w, "  %-52s %-38s %10.4f %16.1f\n", b.Stage, b.Layer, b.P50Ms, b.UsPer)
			}
		}
		if rep.SpanFile != "" {
			fmt.Fprintf(w, "  span file: %s\n", rep.SpanFile)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILURE %s\n", f)
	}
}

// writeReport stores the report as JSON under dir.
func writeReport(dir string, rep *report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("report-%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
