package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The percentile rule: a percentile is reported only with at least ten
// samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{50, 0, false},   // p90 would leave 5 beyond
		{99, 0, false},   // p90 leaves 9
		{100, 90, true},  // p90 leaves exactly 10
		{199, 90, true},  // p95 leaves 9
		{200, 95, true},  // p95 leaves exactly 10
		{999, 95, true},  // p99 leaves 9
		{1000, 99, true}, // p99 leaves exactly 10
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	// A request above what the sample supports falls back to what it does.
	d := make(durSamples, 150)
	for i := range d {
		d[i] = int64(i + 1)
	}
	if v, level := d.tail(99, 1); level != 90 || v != 135 {
		t.Errorf("tail(99) over 150 samples = %v at p%v; want 135 at p90", v, level)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Nine rounds: the best quarter is the best two.
	rounds := []float64{5, 9, 1, 7, 3, 8, 2, 6, 4}
	if got := bestQuarterMean(rounds, "higher"); got != 8.5 {
		t.Errorf("bestQuarterMean higher = %v, want 8.5", got)
	}
	if got := bestQuarterMean(rounds, "lower"); got != 1.5 {
		t.Errorf("bestQuarterMean lower = %v, want 1.5", got)
	}
	if got := bestQuarterMean(rounds[:3], "lower"); got != 1 {
		t.Errorf("bestQuarterMean of three = %v, want the best one, 1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrSpread = %v, want 1.0", got)
	}
}

// Self time is a span's duration minus the part of its interval that
// its children cover: overlapping children count once, and a child
// sticking out of the parent is clipped.
func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{name: spPut, parent: -1, start: 0, end: 100},       // 0
		{name: spInnerPut, parent: 0, start: 10, end: 30},   // 1
		{name: spInnerPut, parent: 0, start: 20, end: 50},   // 2: overlaps 1 → [10,50) covered once
		{name: spInnerPut, parent: 0, start: 70, end: 120},  // 3: clipped to [70,100)
		{name: spGet, parent: -1, start: 200, end: 260},     // 4
		{name: spInnerGet, parent: 4, start: 200, end: 260}, // 5: covers its parent entirely
		{name: spInnerGet, parent: 5, start: 210, end: 215}, // 6: grandchild does not count against 4
	}
	want := []int64{100 - 40 - 30, 20, 30, 50, 0, 55, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// Spans opened on one goroutine nest under each other; a leaf recorded
// on another goroutine with nothing open there has no parent.
func TestRecorderParentsFollowTheGoroutine(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin(spRestore, 1, 7)
	inner := rec.begin(spGet, -1, -1)
	rec.leaf(spInnerGet, rec.now(), rec.now(), 3)
	rec.end(inner, 0)
	rec.end(outer, 0)

	other := rec.begin(spPut, 0, 2) // stays open while another goroutine records
	done := make(chan struct{})
	go func() {
		defer close(done)
		idx := rec.begin(spPut, 0, 3)
		rec.leaf(spInnerPut, rec.now(), rec.now(), 1)
		rec.end(idx, 0)
	}()
	<-done
	rec.end(other, 0)

	spans := rec.snapshot()
	if spans[1].parent != 0 || spans[2].parent != 1 {
		t.Errorf("nesting: get.parent=%d inner.parent=%d, want 0 and 1", spans[1].parent, spans[2].parent)
	}
	if spans[2].iter != 7 || spans[2].tenant != 1 {
		t.Errorf("leaf inherited (tenant %d, iter %d), want (1, 7)", spans[2].tenant, spans[2].iter)
	}
	// spans[3] is `other`; spans[4] the second goroutine's put, spans[5] its leaf.
	if spans[4].parent != -1 {
		t.Errorf("a span on another goroutine got parent %d", spans[4].parent)
	}
	if spans[5].parent != 4 || spans[5].iter != 3 {
		t.Errorf("leaf on the second goroutine: parent %d iter %d, want 4 and 3", spans[5].parent, spans[5].iter)
	}
}

func TestParseObjectName(t *testing.T) {
	id, ok := parseObjectName("bench-t1-root008-it000042-manifest")
	if want := (objectID{tenant: 1, root: 8, iter: 42, manifest: true}); !ok || id != want {
		t.Errorf("got %+v, %v; want %+v", id, ok, want)
	}
	id, ok = parseObjectName("bench-t0-root000-it000003")
	if want := (objectID{tenant: 0, root: 0, iter: 3}); !ok || id != want {
		t.Errorf("got %+v, %v; want %+v", id, ok, want)
	}
	for _, name := range []string{"chunk/abcdef", "other-root000-it000001", "bench-t0-it000001"} {
		if _, ok := parseObjectName(name); ok {
			t.Errorf("%q parsed as a root object", name)
		}
	}
}

// toyRun executes one workload at toy scale with a fixed round count.
func toyRun(t *testing.T, s spec, seed uint64, trace bool) *runOutcome {
	t.Helper()
	dir := t.TempDir()
	rounds := 1
	if trace {
		rounds = 2 // the second round of a traced run is the traced one
	}
	out, err := execute(runConfig{spec: s.toy(), seed: seed, trace: trace, rounds: rounds, setups: 1,
		storeDir: dir, outDir: filepath.Join(dir, "out")})
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.name, seed, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s seed %d: %d failed of %d attempted: %v", s.name, seed, out.failed, out.attempted, out.failures)
	}
	return out
}

// The same seed gives the same inputs and exactly equal counts; another
// seed gives other inputs. Every workload passes its own checks.
func TestSeedDeterminesPayloadAndCounts(t *testing.T) {
	for _, s := range specs() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			a, b, c := toyRun(t, s, 7, false), toyRun(t, s, 7, false), toyRun(t, s, 8, false)
			if a.fingerprint != b.fingerprint {
				t.Errorf("same seed, fingerprints %x and %x", a.fingerprint, b.fingerprint)
			}
			if !s.des && a.fingerprint == c.fingerprint {
				t.Errorf("seeds 7 and 8 share fingerprint %x", a.fingerprint)
			}
			if a.counts != b.counts {
				t.Errorf("same seed, counts %+v and %+v", a.counts, b.counts)
			}
			stored := metricDef{Name: "stored_bytes_per_user_byte", Better: "lower"}
			ra, rb := a.value(stored), b.value(stored)
			if ra != rb || ra <= 0 {
				t.Errorf("same seed, stored_bytes_per_user_byte %v and %v", ra, rb)
			}
			for _, d := range endToEnd {
				if v := a.value(d); !(v > 0) {
					t.Errorf("%s = %v, want a positive value on every workload", d.Name, v)
				}
			}
		})
	}
}

// A traced run reports every per-layer metric, writes a span file, and
// shows the reduce layer's own time where there is a reduce layer.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"ckpt-plain", "ckpt-dedup", "tenants-small", "des-kraken"} {
		s, _ := specByName(name)
		out := toyRun(t, s, 11, true)
		rep := buildReport(out)
		if len(rep.Result.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", name, len(rep.Result.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if _, ok := rep.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, d.Name)
			}
		}
		if s.des {
			if rep.PerLayer["iostrat.tree_run_s"].Value <= 0 || rep.PerLayer["des.wait_resume_ns"].Value <= 0 {
				t.Errorf("%s: DES kernels not measured: %+v", name, rep.PerLayer)
			}
			continue
		}
		if _, err := os.Stat(out.spanFile); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
		put, self := rep.PerLayer["storage.put_ms_p50"].Value, rep.PerLayer["storage.reduce_self_ms_p50"].Value
		if put <= 0 || self < 0 || self > put {
			t.Errorf("%s: put %v ms with self %v ms", name, put, self)
		}
		if calls := rep.PerLayer["storage.inner_put_calls"].Value; calls < float64(out.counts.ObjectsWritten) {
			t.Errorf("%s: %v base-store puts for %d objects", name, calls, out.counts.ObjectsWritten)
		}
		if name == "ckpt-dedup" && rep.PerLayer["chunk.chunks_deduped"].Value <= 0 {
			t.Errorf("%s: nothing deduplicated", name)
		}
		if name == "tenants-small" && (rep.PerLayer["broker.grants"].Value <= 0 || rep.PerLayer["stream.delivered_frac"].Value <= 0) {
			t.Errorf("%s: broker or stream not exercised: %v grants, %v delivered", name,
				rep.PerLayer["broker.grants"].Value, rep.PerLayer["stream.delivered_frac"].Value)
		}
	}
}

func TestJudgeAppliesBoundAndSpread(t *testing.T) {
	higher := metricDef{Name: "durable_MBps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	if v := judge(higher, steady, []float64{95, 96, 94, 95, 95.5, 94.5}); v.status != "ok" {
		t.Errorf("5%% worse within a 10%% bound: %s", v.status)
	}
	if v := judge(higher, steady, []float64{80, 81, 79, 80, 80.5, 79.5}); v.status != "regressed" {
		t.Errorf("20%% worse: %s", v.status)
	}
	noisy := []float64{60, 140, 100, 80, 120, 100}
	if v := judge(higher, steady, noisy); v.status != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v.status)
	}
	if v := judge(higher, steady, []float64{150, 250, 200, 180, 220, 200}); v.status != "ok" {
		t.Errorf("noisy but better in every run: %s", v.status)
	}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	if v := judge(lower, []float64{1, 2, 3, 1, 2, 3}, []float64{1, 2, 3, 1, 2, 3}); v.status != "ok" {
		t.Errorf("setup_s is exempt from the spread rule: %s", v.status)
	}
	if v := judge(lower, steady, []float64{130, 131, 129, 130, 130, 130}); v.status != "regressed" {
		t.Errorf("30%% slower set-up: %s", v.status)
	}
}

// BENCHMARK.json is generated from the declarations in this package
// (benchmark -describe); the two must not drift apart.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the package: %v", err)
	}
	var want bytes.Buffer
	if err := describe(&want); err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(committed, &a); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(want.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json differs from `benchmark -describe`; regenerate it")
	}
}

// Every way a round can go wrong counts as failed operations.
func TestFailedCountsEveryKindOfLoss(t *testing.T) {
	healthy := roundResult{blocks: 100, restored: 100, exact: 100}
	if got := healthy.failed(); got != 0 {
		t.Errorf("healthy round: %d failed", got)
	}
	cases := map[string]roundResult{
		"skipped writes":        {blocks: 100, skipped: 4, restored: 96, exact: 96},
		"refused writes":        {blocks: 100, writeErrors: 4, restored: 96, exact: 96},
		"lost blocks":           {blocks: 100, lost: 4, restored: 96, exact: 96},
		"corrupt blocks":        {blocks: 100, restored: 100, exact: 96},
		"missing blocks":        {blocks: 100, restored: 96, exact: 96, conservation: 4},
		"duplicated blocks":     {blocks: 100, restored: 104, exact: 104, conservation: 4},
		"an error was reported": {blocks: 100, restored: 100, exact: 100, programErrs: []string{"boom"}},
	}
	for name, r := range cases {
		if got := r.failed(); got < 1 {
			t.Errorf("%s: failed() = %d, want at least 1", name, got)
		}
	}
}
