package experiments

import (
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
)

// quick returns the small machine the unit tests run on: two scales of
// 8 and 16 Kraken nodes, two output phases. The paper's absolute bands
// do not hold there; each test asserts only what does.
func quick() Options {
	return Options{Seed: 2013, Iterations: 2, Scales: []int{96, 192}, Platform: "kraken"}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o = o.withDefaults()
	if o.Seed == 0 || o.Iterations == 0 || len(o.Scales) == 0 || o.Platform == "" {
		t.Fatalf("defaults not filled: %+v", o)
	}
	if o.maxScale() != 9216 {
		t.Fatalf("default max scale = %d", o.maxScale())
	}
}

func TestPlatformForValidatesDivisibility(t *testing.T) {
	o := Options{Platform: "kraken"}.withDefaults()
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible core count accepted")
		}
	}()
	o.platformFor(100) // not divisible by 12
}

func TestCheckBands(t *testing.T) {
	inBand := Check{Measured: 5, Lo: 4, Hi: 6}
	if !inBand.Pass() {
		t.Fatal("in-band check failed")
	}
	atLeast := Check{Measured: 100, Lo: 10}
	if !atLeast.Pass() {
		t.Fatal("open-ended check failed")
	}
	below := Check{Measured: 3, Lo: 4, Hi: 6}
	if below.Pass() {
		t.Fatal("below-band check passed")
	}
	if !strings.Contains(below.String(), "MISS") {
		t.Fatal("failing check not labeled MISS")
	}
	if !strings.Contains(inBand.String(), "OK") {
		t.Fatal("passing check not labeled OK")
	}
}

func TestReportRendering(t *testing.T) {
	rep := Report{ID: "EX", Title: "example"}
	rep.Checks = []Check{{Name: "c", Measured: 1, Lo: 0, Hi: 2}}
	out := rep.String()
	if !strings.Contains(out, "EX") || !strings.Contains(out, "example") {
		t.Fatalf("report rendering: %q", out)
	}
	if !rep.AllPass() {
		t.Fatal("AllPass on passing report")
	}
	rep.Checks = append(rep.Checks, Check{Name: "bad", Measured: 10, Lo: 0, Hi: 2})
	if rep.AllPass() {
		t.Fatal("AllPass with failing check")
	}
	rep.Checks = []Check{{Name: "wall", Measured: 10, Unit: "ms", Lo: 0, Hi: 2, Timed: true}}
	if out := rep.Masked(); !strings.Contains(out, "~    wall") || strings.Contains(out, "MISS") ||
		strings.Contains(out, "measured: 10") {
		t.Fatalf("Masked must hide a timed check's status and value: %q", out)
	}
}

func TestE1QuickShape(t *testing.T) {
	p := NewPass(quick())
	rep := runOn(t, p, "e1")
	if len(rep.Tables) == 0 || rep.Tables[0].NumRows() != len(quick().Scales)*3 {
		t.Fatalf("E1 table shape wrong")
	}
	// Even at toy scale, Damaris must hide I/O and run fastest.
	damarisHidesIO(t, p)
}

// damarisHidesIO reads the E1 legs of pass p at every scale: Damaris'
// visible I/O stays under a second and it beats collective I/O.
func damarisHidesIO(t *testing.T, p *Pass) {
	t.Helper()
	for _, scale := range p.opts.Scales {
		dam, coll := leg(t, p, iostrat.Damaris, scale), leg(t, p, iostrat.Collective, scale)
		if dam.MeanIOTime() > 1 {
			t.Errorf("%s @%d: Damaris visible I/O %v s", p.opts.Platform, scale, dam.MeanIOTime())
		}
		if dam.TotalTime >= coll.TotalTime {
			t.Errorf("%s @%d: Damaris (%v) not faster than collective (%v)",
				p.opts.Platform, scale, dam.TotalTime, coll.TotalTime)
		}
	}
}

// leg returns pass p's leg of approach a on the default config at cores.
func leg(t *testing.T, p *Pass, a iostrat.Approach, cores int) iostrat.Result {
	t.Helper()
	r, err := p.des(a, p.opts.strategyConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPassRunsEachLegOnce: one pass runs each distinct DES leg once and
// serves the repeats, a served result is what a fresh run returns, a
// leg that spells a default out is served, and legs that differ in any
// canonical Config field, a pointer's identity included, both run.
func TestPassRunsEachLegOnce(t *testing.T) {
	p := NewPass(quick())
	for _, id := range []string{"e1", "e2", "e3", "e4"} {
		runOn(t, p, id)
	}
	// E1 asks for 3 approaches at 2 scales; E2's four legs, E3's three
	// and E4's two are among them.
	if len(p.legs) != 6 || p.requests != 15 {
		t.Fatalf("E1-E4 ran %d legs for %d requests, want 6 for 15", len(p.legs), p.requests)
	}
	top := p.opts.maxScale()
	cfg := p.opts.strategyConfig(top)
	fresh, err := iostrat.Run(iostrat.Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if served := leg(t, p, iostrat.Damaris, top); !reflect.DeepEqual(served, fresh) {
		t.Fatal("served result differs from a fresh run")
	}

	// Spelling a default out is the same leg: the key is canonical.
	spelled := cfg
	spelled.Scheduling, spelled.FilesPerIter, spelled.Codec = iostrat.SchedNone, 1, "none"
	if _, err := p.des(iostrat.Damaris, spelled); err != nil {
		t.Fatal(err)
	}
	if len(p.legs) != 6 {
		t.Fatalf("%d legs after the default leg with its defaults spelled out, want 6", len(p.legs))
	}

	seed, failA := cfg, cfg
	seed.Seed++
	failA.Fanout = treeFanout
	failB := failA
	failA.Failures = cluster.NewFailureSchedule()
	failB.Failures = cluster.NewFailureSchedule()
	for _, c := range []iostrat.Config{seed, failA, failB} {
		if _, err := p.des(iostrat.Damaris, c); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.legs) != 9 {
		t.Fatalf("%d legs after a new seed and two failure schedules, want 9", len(p.legs))
	}

	// Each E11 leg carries its own freshly generated trace, so none is
	// served, the replay of the NIC-step leg included.
	e11 := NewPass(quick())
	runOn(t, e11, "e11")
	if len(e11.legs) != e11.requests {
		t.Fatalf("E11 ran %d legs for %d requests", len(e11.legs), e11.requests)
	}
}

// run runs the registered experiment id on a fresh pass over opts.
func run(t *testing.T, opts Options, id string) Report {
	t.Helper()
	return runOn(t, NewPass(opts), id)
}

// runOn runs the registered experiment id on pass p.
func runOn(t *testing.T, p *Pass, id string) Report {
	t.Helper()
	reg := Registry()
	i := slices.IndexFunc(reg, func(e Entry) bool { return e.ID == id })
	if i < 0 {
		t.Fatalf("no experiment %q", id)
	}
	rep, err := p.Run(reg[i])
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep
}

func TestE2Quick(t *testing.T) {
	rep := run(t, quick(), "e2")
	if len(rep.Tables) != 2 {
		t.Fatalf("E2 tables = %d", len(rep.Tables))
	}
	// The Damaris-specific shape claims must hold even at toy scale.
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "Damaris") && !c.Pass() {
			t.Errorf("E2 check failed at quick scale: %s", c)
		}
	}
}

func TestE3QuickOrdering(t *testing.T) {
	// The full collective < FPP < Damaris ordering is a contention
	// phenomenon that appears at scale (asserted by the paper-scale
	// bench); at toy scale only the Damaris > collective gap is robust.
	rep := run(t, quick(), "e3")
	var damaris, collective float64
	for _, row := range strings.Split(rep.Tables[0].CSV(), "\n") {
		cells := strings.Split(row, ",")
		if len(cells) < 4 {
			continue
		}
		switch cells[0] {
		case "damaris":
			damaris = parseFloat(t, cells[3])
		case "collective":
			collective = parseFloat(t, cells[3])
		}
	}
	if damaris <= collective {
		t.Errorf("Damaris throughput (%v) not above collective (%v) at quick scale",
			damaris, collective)
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE4Quick(t *testing.T) {
	rep := run(t, quick(), "e4")
	if len(rep.Tables) != 1 || rep.Tables[0].NumRows() != len(quick().Scales) {
		t.Fatalf("E4 table shape")
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("E4 idle check failed at quick scale: %s", c)
		}
	}
}

func TestE5Quick(t *testing.T) {
	rep := run(t, quick(), "e5")
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("E5 check failed: %s", c)
		}
	}
}

func TestE6QuickGain(t *testing.T) {
	if testing.Short() {
		t.Skip("the runtime face paces real writes")
	}
	rep := run(t, quick(), "e6")
	// Classic policy sweep, cross-root DES sweep, runtime comparison.
	if len(rep.Tables) != 3 {
		t.Fatalf("E6 tables = %d, want 3", len(rep.Tables))
	}
	if rep.Tables[0].NumRows() != 3 {
		t.Fatalf("classic table rows = %d", rep.Tables[0].NumRows())
	}
	if rep.Tables[1].NumRows() != 12 { // 2 root counts × 2 layouts × 3 policies
		t.Fatalf("cross-root table rows = %d", rep.Tables[1].NumRows())
	}
	// The DES cross-root claims are deterministic and must hold at quick
	// scale (wall-clock-based runtime checks are asserted loosely by the
	// experiment itself).
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "DES cross-root") && !c.Pass() {
			t.Errorf("E6 check failed at quick scale: %s", c)
		}
	}
}

func TestE7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rep := run(t, quick(), "e7")
	// Only assert the deterministic parts: frames dropped and the scale
	// model; absolute wall-clock ratios are machine-dependent.
	for _, c := range rep.Checks {
		if c.Name == "frames dropped with tight segment" && !c.Pass() {
			t.Errorf("skip policy did not drop frames: %s", c)
		}
	}
}

func TestE8CountsAreStable(t *testing.T) {
	rep := run(t, quick(), "e8")
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("E8 check failed: %s", c)
		}
	}
	rep2 := run(t, quick(), "e8")
	if rep.Checks[0].Measured != rep2.Checks[0].Measured {
		t.Fatal("LoC count not deterministic")
	}
}

// TestCouplingsRun runs the two integrations E8 counts, so the lines it
// measures are lines that work.
func TestCouplingsRun(t *testing.T) {
	dir := t.TempDir()
	for name, run := range map[string]func(steps, gridN int, outDir string) ([]time.Duration, error){
		"damaris": runDamarisCoupled,
		"visit":   runVisItCoupled,
	} {
		times, err := run(2, 6, filepath.Join(dir, name))
		if err != nil || len(times) != 2 {
			t.Fatalf("%s coupling: %d steps, %v", name, len(times), err)
		}
		if images, _ := filepath.Glob(filepath.Join(dir, name, "*")); len(images) == 0 {
			t.Errorf("%s coupling wrote no images", name)
		}
	}
}

func TestA1CopySemantics(t *testing.T) {
	rep := run(t, quick(), "a1")
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("A1 check failed: %s", c)
		}
	}
}

func TestA2QuickMonotone(t *testing.T) {
	rep := run(t, quick(), "a2")
	if rep.Tables[0].NumRows() != 4 {
		t.Fatalf("A2 sweep rows = %d", rep.Tables[0].NumRows())
	}
}

func TestCountInstrumentationErrors(t *testing.T) {
	if _, err := countInstrumentation("/nonexistent/file.go"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDeterministicReports(t *testing.T) {
	a := run(t, quick(), "e3")
	b := run(t, quick(), "e3")
	if a.Tables[0].CSV() != b.Tables[0].CSV() {
		t.Fatal("E3 not reproducible across runs")
	}
}

// TestOtherPlatforms runs the E1 sweep on the paper's two other machines
// (Grid'5000, Power5): the Damaris-hides-I/O shape must hold on every
// preset, not just Kraken.
func TestOtherPlatforms(t *testing.T) {
	for _, platform := range []string{"grid5000", "power5"} {
		// 96 and 192 cores: multiples of 24 (grid5000) and 16 (power5)
		// cores/node.
		o := Options{Seed: 2013, Iterations: 2, Scales: []int{96, 192}, Platform: platform}
		p := NewPass(o)
		runOn(t, p, "e1")
		damarisHidesIO(t, p)
	}
}

func TestF1Quick(t *testing.T) {
	rep := run(t, quick(), "f1")
	if len(rep.Tables) != 2 {
		t.Fatalf("F1 produced %d tables, want 2 (DES + runtime)", len(rep.Tables))
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("check failed: %s", c)
		}
	}
}

func TestR1Quick(t *testing.T) {
	rep := run(t, quick(), "r1")
	if len(rep.Tables) != 2 {
		t.Fatalf("R1 produced %d tables, want 2 (restore + DES read model)", len(rep.Tables))
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("check failed: %s", c)
		}
	}
}

// TestR1SDFArtifacts: with the sdf backend the runtime side leaves a
// restorable on-disk store behind — the `-restart-from` input.
func TestR1SDFArtifacts(t *testing.T) {
	opts := quick()
	opts.BackendDir = t.TempDir()
	rep := run(t, opts, "r1")
	if !rep.AllPass() {
		t.Fatalf("checks failed:\n%s", rep.String())
	}
	// The no-failure run's artifacts restore losslessly in a fresh
	// backend over the directory, like a restarting process would.
	store, err := storage.NewSDF(nil, 1, 1e9, filepath.Join(opts.BackendDir, "fail0"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.Restore(store, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) != 0 || r.TotalBlocks() == 0 {
		t.Fatalf("on-disk restore wrong: %d blocks, problems %v", r.TotalBlocks(), r.Problems)
	}
	if _, ok := r.LatestComplete(8); !ok {
		t.Fatal("no complete checkpoint in the no-failure artifacts")
	}
}

// TestR1AdaptiveStoreSmallBlocks is the small-block guard of the
// part-by-part frame: R1's quick runtime leg over the adaptive store
// writes root objects of sixteen 512-byte blocks, every segment is below
// the stand-alone size, so the object is encoded whole and costs no more
// than it did as a one-piece frame (432 bytes for the 8,540-byte object;
// encoding each segment alone cost 5,080).
func TestR1AdaptiveStoreSmallBlocks(t *testing.T) {
	base := storage.NewMemory(nil, 4, 1e9)
	store, err := chunk.Stack(base, storage.AdaptiveCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (runtimeLeg{job: "r1", nodes: 8, clients: 2, floats: 64, iters: 4,
		cc: cluster.ClusterConfig{Store: store}}).run(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := restoreClean(store, "r1"); err != nil {
		t.Fatal(err)
	}
	names, err := base.List("r1-")
	if err != nil {
		t.Fatal(err)
	}
	objects := 0
	for _, name := range names {
		if cluster.IsManifestName(name) {
			continue
		}
		obj, err := base.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := storage.ParseFrameHeader(obj)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		objects++
		if h.RawSize != 8540 || h.EncodedSize > 432 {
			t.Errorf("%s: %s %d -> %d bytes, want 8540 -> at most 432", name, h.Codec, h.RawSize, h.EncodedSize)
		}
	}
	if objects != 4 {
		t.Fatalf("found %d data objects, want 4", objects)
	}
}

func TestC1Quick(t *testing.T) {
	rep := run(t, quick(), "c1")
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("C1 check failed: %s", c)
		}
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("C1 produced %d tables, want 4", len(rep.Tables))
	}
}

// TestE9Quick runs the multi-tenant sweep at quick scale: every check —
// including the acceptance one, EDF beating FIFO on p99 write latency
// under oversubscription — must hold.
func TestE9Quick(t *testing.T) {
	rep := run(t, quick(), "e9")
	if len(rep.Tables) != 2 { // DES sweep + runtime accounting
		t.Fatalf("E9 produced %d tables, want 2", len(rep.Tables))
	}
	if rep.Tables[0].NumRows() != 16 { // 2 tenancies × 2 rates × 4 policies
		t.Fatalf("E9 sweep rows = %d, want 16", rep.Tables[0].NumRows())
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("E9 check failed at quick scale: %s", c)
		}
	}
}
