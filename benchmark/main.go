// Command benchmark is the repo's benchmark: five workloads that take
// bytes from Client.Write to a stored object and back — plus the DES
// face every paper-scale experiment stands on — measured end to end
// with tracing off and, in a separate traced run, layer by layer.
//
// One run is one workload, one seed, one process:
//
//	benchmark --workload ckpt-plain --seed 2013 --seconds 15 --trace 0
//
// It prints every metric by name with its unit, checks every output
// (restored blocks byte-equal to what was written, conservation of
// blocks, no error reported anywhere, bit-identical DES results),
// prints its verdict as one JSON object on the last line of standard
// output, and exits non-zero when anything failed. See README.md for
// the workloads, the metrics and their bounds.
//
// Two more modes serve "do two sets of runs agree":
//
//	benchmark -collect set.json -runs 10   # every workload × 10 seeds
//	benchmark -compare a.json b.json       # ok / regressed / unresolved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeconds is the measuring time of one run; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 15

func main() {
	var names []string
	for _, s := range specs() {
		names = append(names, s.name)
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 2013, "seed every input is generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	storeDir := flag.String("store-dir", "", "directory the stores are created under (default: "+ramDir+" when it is a writable tmpfs, else the -out directory)")
	outDir := flag.String("out", "out/benchmark", "directory for the report and the span file")
	collectTo := flag.String("collect", "", "make a result set: run every workload -runs times and write the set to this file")
	runs := flag.Int("runs", 10, "runs per workload of a result set")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	describeOnly := flag.Bool("describe", false, "print BENCHMARK.json as this package declares it")
	flag.Parse()
	if *storeDir == "" {
		*storeDir = defaultStoreDir(*outDir)
	}

	switch {
	case *describeOnly:
		if err := describe(os.Stdout); err != nil {
			fatal(1, "%v", err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare a.json b.json")
		}
		a, err := loadSet(flag.Arg(0))
		if err != nil {
			fatal(2, "%v", err)
		}
		b, err := loadSet(flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if compareSets(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
	case *collectTo != "":
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			fatal(2, "%v", err)
		}
		if err := collect(*collectTo, *runs, int(*seconds), *seed, *storeDir, *outDir, os.Stdout); err != nil {
			fatal(1, "%v", err)
		}
	default:
		s, ok := specByName(*workload)
		if !ok {
			fatal(2, "unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
		}
		if *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fatal(2, "--seconds must be positive and --trace 0 or 1")
		}
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			fatal(2, "%v", err)
		}
		out, err := execute(runConfig{spec: s, seed: *seed, seconds: *seconds, trace: *trace == 1,
			storeDir: *storeDir, outDir: *outDir})
		if err != nil {
			fatal(1, "%v", err)
		}
		rep := buildReport(out)
		printReport(os.Stdout, rep)
		if path, err := writeReport(*outDir, rep); err != nil {
			fatal(1, "%v", err)
		} else {
			fmt.Printf("  report: %s\n", path)
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("%s\n", line)
		if !rep.Result.Correct {
			os.Exit(1)
		}
	}
}

// ramDir is where the stores go by default: a RAM-backed filesystem, so
// the numbers are the program's and not a disk's. On the sandbox's
// virtual disk a round's file creates and deletes wait on the journal,
// and run-to-run spreads of the file-heavy workloads reach 25–90 %.
const ramDir = "/dev/shm"

// defaultStoreDir picks ramDir when it is a tmpfs this process can
// write to, and the fallback directory otherwise.
func defaultStoreDir(fallback string) string {
	if filesystemOf(ramDir) != "tmpfs" {
		return fallback
	}
	probe, err := os.MkdirTemp(ramDir, "benchmark-probe-")
	if err != nil {
		return fallback
	}
	os.Remove(probe)
	return ramDir
}

// describe writes BENCHMARK.json: the command, the workloads and the
// metrics exactly as this package declares them.
func describe(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound: omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs() {
		doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
