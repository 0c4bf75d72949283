package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// resultSet is one complete set of runs of one commit: every workload,
// several seeds each, as the driver would make them.
type resultSet struct {
	Taken   string      `json:"taken"`
	Seconds int         `json:"seconds"`
	Env     environment `json:"env"`
	Note    string      `json:"note"`
	Runs    []setRun    `json:"runs"`
}

// setRun is one run of a set.
type setRun struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
}

// collect makes a result set: runs times each workload with --trace 0,
// each time with another seed, plus one traced run per workload, every
// run in a process of its own exactly as the driver starts it.
func collect(path string, runs, seconds int, baseSeed uint64, storeDir, outDir string, progress io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Taken: time.Now().UTC().Format(time.RFC3339), Seconds: seconds, Note: sandboxNote,
		Env: currentEnvironment(storeDir)}
	for _, s := range specs() {
		for i := 0; i <= runs; i++ {
			seed, trace := baseSeed+uint64(i), 0
			if i == runs { // the traced run reuses the first seed
				seed, trace = baseSeed, 1
			}
			args := []string{"--workload", s.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
				"-store-dir", storeDir, "-out", outDir}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			t0 := time.Now()
			runErr := cmd.Run()
			line, err := lastLine(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (run: %v)", s.name, seed, err, runErr)
			}
			var res resultLine
			if err := json.Unmarshal(line, &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", s.name, seed, err)
			}
			run := setRun{Workload: s.name, Seed: seed, Trace: trace, Correct: res.Correct,
				Attempted: res.Attempted, Failed: res.Failed, WallS: time.Since(t0).Seconds(),
				Metrics: map[string]float64{}}
			for name, m := range res.Metrics {
				run.Metrics[name] = m.Value
			}
			set.Runs = append(set.Runs, run)
			fmt.Fprintf(progress, "%-14s seed %-6d trace %d  %5.1fs  correct=%v\n",
				s.name, seed, trace, run.WallS, run.Correct)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, sc.Err()
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values returns a set's untraced values of one metric on one workload.
func (rs *resultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	a, b   float64 // medians
	worse  float64 // by how much b is worse than a, as a share of a (negative: better)
	spread float64 // the wider of the two sets' quartile distances, as a share of the median
	status string  // ok, regressed, unresolved
}

// judge applies a metric's bound to two sets of values: b regressed
// when its median is worse than a's by more than the bound; the pair is
// unresolved when either set's own spread is wider than the bound —
// unless every value of b is better than every value of a. setup_s is
// exempt from the spread rule, as in the benchmark's contract.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{a: median(a), b: median(b), spread: max(iqrSpread(a), iqrSpread(b)), status: "ok"}
	if len(a) == 0 || len(b) == 0 {
		v.status = "unresolved"
		return v
	}
	if v.a != 0 {
		v.worse = (v.b - v.a) / v.a
		if d.Better == "higher" {
			v.worse = -v.worse
		}
	}
	allBetter := slices.Max(b) < slices.Min(a)
	if d.Better == "higher" {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case v.spread > d.Bound && d.Name != "setup_s" && !allBetter:
		v.status = "unresolved"
	case v.worse > d.Bound:
		v.status = "regressed"
	}
	return v
}

// compareSets prints, per workload and end-to-end metric, whether set b
// agrees with set a within the metric's bound. It returns how many
// pairs regressed or stayed unresolved.
func compareSets(w io.Writer, a, b *resultSet) int {
	bad := 0
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "median a", "median b", "b worse", "spread", "bound", "verdict")
	for _, s := range specs() {
		for _, d := range endToEnd {
			v := judge(d, a.values(s.name, d.Name), b.values(s.name, d.Name))
			if v.status != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				s.name, d.Name, v.a, v.b, 100*v.worse, 100*v.spread, 100*d.Bound, v.status)
		}
		fa, fb := failedRuns(a, s.name), failedRuns(b, s.name)
		status := "ok"
		if fa+fb > 0 {
			status = "regressed"
			bad++
		}
		fmt.Fprintf(w, "%-14s %-28s %14d %14d %39s\n", s.name, "runs with failed > 0", fa, fb, status)
	}
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 40))
	fmt.Fprintf(w, "%d pair(s) regressed or unresolved\n", bad)
	return bad
}

// failedRuns counts a workload's runs that failed anything.
func failedRuns(rs *resultSet, workload string) int {
	n := 0
	for _, r := range rs.Runs {
		if r.Workload == workload && (!r.Correct || r.Failed > 0) {
			n++
		}
	}
	return n
}
