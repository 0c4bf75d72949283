package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one benchmark run: one workload, one seed, one process.
type runConfig struct {
	spec     spec
	seed     uint64
	seconds  float64
	trace    bool
	storeDir string // parent of the per-run store directory
	outDir   string // where the report and the span file go
	rounds   int    // fixed number of timed rounds (tests); 0 = time-bound
	setups   int    // how many times set-up is repeated (median reported)
}

// Set-up is repeated so its median is steady; rounds are measured until
// --seconds is used up (to within half a round), but never fewer than
// minRounds.
const (
	defaultSetups = 3
	minRounds     = 3
	// kernelShare of a traced run's --seconds goes to the kernel pass.
	kernelShare = 0.25
)

// roundValues are one timed round's end-to-end values, by metric name.
type roundValues struct {
	Traced   bool               `json:"traced"`
	WriteS   float64            `json:"write_s"`
	RestoreS float64            `json:"restore_s"`
	Failed   int64              `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// valuesOf turns a round's raw measurements into end-to-end values. On
// the DES face the runtime metrics read the simulator's analogues: the
// simulated bytes, blocks and core-iterations it prices per wall second.
func valuesOf(s spec, r *roundResult) roundValues {
	v := roundValues{Traced: r.traced, Failed: r.failed(),
		WriteS: r.writeWall.Seconds(), RestoreS: r.restoreWall.Seconds()}
	restoredBytes, stored := float64(r.userBytes), float64(r.storedBytes)/float64(r.userBytes)
	phaseUs := r.phaseNs.p50(1e3)
	if s.des {
		tree, restart := r.des[desTree], r.des[desRestart]
		v.WriteS, v.RestoreS = r.desWall.Seconds(), r.desRestartWall.Seconds()
		restoredBytes, stored = desRestartReps*restart.userBytes, tree.storedBytes/tree.userBytes
		phaseUs = v.WriteS * 1e6 / float64(r.coreIters)
	}
	v.Metrics = map[string]float64{
		"durable_MBps":               float64(r.userBytes) / 1e6 / v.WriteS,
		"blocks_per_s":               float64(r.blocks) / v.WriteS,
		"des_core_iters_per_s":       float64(r.coreIters) / v.WriteS,
		"client_phase_us_p50":        phaseUs,
		"restore_MBps":               restoredBytes / 1e6 / v.RestoreS,
		"stored_bytes_per_user_byte": stored,
	}
	return v
}

// runOutcome is a finished run, ready to be reported.
type runOutcome struct {
	cfg         runConfig
	env         environment
	fingerprint uint64
	setupS      []float64
	rounds      []roundValues
	attempted   int64
	failed      int64
	failures    []string
	layers      *layerStats // traced runs only
	kernels     map[string]float64
	phaseAll    durSamples // client phases of every timed round
	spanFile    string
	// counts are the exact per-round counts of the first timed round
	// (they repeat every round of one seed).
	counts roundCounts
}

// roundCounts are counts that repeat exactly for one seed.
type roundCounts struct {
	StoredBytes    int64 `json:"stored_bytes"`
	ObjectsWritten int64 `json:"cluster.objects_written"`
	ChunksStored   int64 `json:"chunk.chunks_stored"`
	ChunksDeduped  int64 `json:"chunk.chunks_deduped"`
	EncodedBytes   int64 `json:"compress.encoded_bytes"`
}

// environment records where the numbers come from.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	StoreDir   string `json:"store_dir"`
	StoreFS    string `json:"store_filesystem"`
}

// currentEnvironment describes this process and the store directory.
func currentEnvironment(storeDir string) environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, StoreDir: storeDir, StoreFS: filesystemOf(storeDir),
	}
}

// value is what the run reports for an end-to-end metric: the median of
// the set-ups, and over the untraced timed rounds the mean of the best
// quarter (see bestQuarterMean).
func (o *runOutcome) value(d metricDef) float64 {
	if d.Name == "setup_s" {
		return median(o.setupS)
	}
	return bestQuarterMean(o.series(d.Name, false), d.Better)
}

// series returns a metric's per-round values, traced or untraced rounds.
func (o *runOutcome) series(name string, traced bool) []float64 {
	var xs []float64
	for _, r := range o.rounds {
		if r.Traced == traced {
			xs = append(xs, r.Metrics[name])
		}
	}
	return xs
}

// execute performs one run: set-up (several times, the last kept), the
// timed rounds, and in a traced run the kernel pass.
func execute(cfg runConfig) (*runOutcome, error) {
	s := cfg.spec
	if cfg.setups <= 0 {
		cfg.setups = defaultSetups
	}
	storeRoot, err := os.MkdirTemp(cfg.storeDir, "store-"+s.name+"-")
	if err != nil {
		return nil, fmt.Errorf("store directory: %w", err)
	}
	defer os.RemoveAll(storeRoot)

	out := &runOutcome{cfg: cfg, env: currentEnvironment(cfg.storeDir)}
	note := func(r *roundResult, what string) {
		out.failed += r.failed()
		for _, e := range r.programErrs {
			if len(out.failures) < 20 {
				out.failures = append(out.failures, what+": "+e)
			}
		}
	}

	// Set-up: generate the payloads, build the system, run the untimed
	// warm-up round (the first round of a process runs on cold pages).
	var p *payloads
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		p = generate(s, cfg.seed)
		warm, err := runRound(s, p, storeRoot, -1-i, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		note(warm, "warm-up")
		runtime.GC()
	}
	out.fingerprint = p.fingerprint

	roundBudget := cfg.seconds
	if cfg.trace {
		roundBudget *= 1 - kernelShare
		out.layers = newLayerStats(s)
	}
	var firstDES map[desStrategy]desOutcome
	measureStart := time.Now()
	for n := 0; ; n++ {
		if cfg.rounds > 0 {
			if n >= cfg.rounds {
				break
			}
		} else if spent := time.Since(measureStart).Seconds(); n >= minRounds && spent+spent/float64(2*n) >= roundBudget {
			// The next round would end further past the budget than
			// stopping here falls short of it.
			break
		}
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured inside one process.
		traced := cfg.trace && !s.des && n%2 == 1
		r, err := runRound(s, p, storeRoot, n, traced)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		if s.des {
			out.attempted += int64(len(r.des))
			if firstDES == nil {
				firstDES = r.des
			}
			for st, o := range r.des {
				if o.totalTime != firstDES[st].totalTime {
					r.programErrs = append(r.programErrs, fmt.Sprintf(
						"%s: simulated time %v differs from round 0's %v", st, o.totalTime, firstDES[st].totalTime))
				}
			}
		} else {
			out.attempted += r.blocks
		}
		note(r, fmt.Sprintf("round %d", n))
		out.rounds = append(out.rounds, valuesOf(s, r))
		out.phaseAll = append(out.phaseAll, r.phaseNs...)
		if n == 0 {
			out.counts = roundCounts{StoredBytes: r.storedBytes, ObjectsWritten: r.counts.objectsWritten,
				ChunksStored: r.reduce.chunksStored, ChunksDeduped: r.reduce.chunksDeduped,
				EncodedBytes: r.reduce.encodedBytes}
		}
		if out.layers != nil {
			out.layers.absorb(r)
			if traced && out.spanFile == "" {
				out.spanFile = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, cfg.seed))
				if err := writeSpanFile(out.spanFile, r.trace.rec.snapshot()); err != nil {
					return nil, fmt.Errorf("span file: %w", err)
				}
			}
			r.trace = nil
		}
		runtime.GC()
	}
	if cfg.trace {
		budget := cfg.seconds * kernelShare
		if cfg.rounds > 0 {
			budget = 0 // tests: one call per kernel
		}
		if out.kernels, err = runKernels(s, p, cfg.seed, storeRoot, budget); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// overheadFrac is (untraced − traced) / untraced on the workload's
// headline metric, 0 when the run has no traced rounds.
func (o *runOutcome) overheadFrac() float64 {
	name := headline(o.cfg.spec) // a rate on every workload
	un, tr := bestQuarterMean(o.series(name, false), "higher"), bestQuarterMean(o.series(name, true), "higher")
	if un == 0 || len(o.series(name, true)) == 0 {
		return 0
	}
	return (un - tr) / un
}

// failedFrac is failed operations over attempted ones.
func (o *runOutcome) failedFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return math.Min(1, float64(o.failed)/float64(o.attempted))
}
