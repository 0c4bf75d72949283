package experiments

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/storage"
)

// quick returns fast options for tests (small machine, few phases).
func quick() Options { return Quick() }

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
	res, err := RunE1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || res.Tables[0].NumRows() != len(quick().Scales)*3 {
		t.Fatalf("E1 table shape wrong")
	}
	// Even at toy scale, Damaris must hide I/O and run fastest.
	for _, scale := range quick().Scales {
		dam := res.Results[scale][iostrat.Damaris]
		coll := res.Results[scale][iostrat.Collective]
		if dam.MeanIOTime() > 1 {
			t.Errorf("scale %d: Damaris visible I/O %v", scale, dam.MeanIOTime())
		}
		if dam.TotalTime >= coll.TotalTime {
			t.Errorf("scale %d: Damaris (%v) not faster than collective (%v)",
				scale, dam.TotalTime, coll.TotalTime)
		}
	}
}

func TestE2Quick(t *testing.T) {
	rep, err := RunE2(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	rep, err := RunE3(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	rep, err := RunE4(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	rep, err := RunE5(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	rep, err := RunE6(quick())
	if err != nil {
		t.Fatal(err)
	}
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

// The cross-only mode (the CI matrix's e6-cross entry) must skip the
// classic sweep and still pass its checks.
func TestE6CrossOnlyMode(t *testing.T) {
	if testing.Short() {
		t.Skip("the runtime face paces real writes")
	}
	o := quick()
	o.Scheduling = iostrat.SchedClusterToken
	rep, err := RunE6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("cross-only tables = %d, want 2", len(rep.Tables))
	}
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "DES") && !c.Pass() {
			t.Errorf("cross-only check failed: %s", c)
		}
	}
}

func TestE7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rep, err := RunE7(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Only assert the deterministic parts: frames dropped and the scale
	// model; absolute wall-clock ratios are machine-dependent.
	for _, c := range rep.Checks {
		if c.Name == "frames dropped with tight segment" && !c.Pass() {
			t.Errorf("skip policy did not drop frames: %s", c)
		}
	}
}

func TestE8CountsAreStable(t *testing.T) {
	rep, err := RunE8(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("E8 check failed: %s", c)
		}
	}
	rep2, _ := RunE8(quick())
	if rep.Checks[0].Measured != rep2.Checks[0].Measured {
		t.Fatal("LoC count not deterministic")
	}
}

func TestA1CopySemantics(t *testing.T) {
	rep, err := RunA1(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("A1 check failed: %s", c)
		}
	}
}

func TestA2QuickMonotone(t *testing.T) {
	rep, err := RunA2(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	a, err := RunE3(quick())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunE3(quick())
	if a.Tables[0].CSV() != b.Tables[0].CSV() {
		t.Fatal("E3 not reproducible across runs")
	}
}

// TestOtherPlatforms runs the E1 sweep on the paper's two other machines
// (Grid'5000, Power5): the Damaris-hides-I/O shape must hold on every
// preset, not just Kraken.
func TestOtherPlatforms(t *testing.T) {
	for _, platform := range []string{"grid5000", "power5"} {
		o := Options{
			Seed:       2013,
			Iterations: 2,
			Platform:   platform,
		}
		switch platform {
		case "grid5000":
			o.Scales = []int{96, 192} // multiples of 24 cores/node
		case "power5":
			o.Scales = []int{96, 192} // multiples of 16 cores/node
		}
		res, err := RunE1(o)
		if err != nil {
			t.Fatalf("%s: %v", platform, err)
		}
		for _, scale := range o.Scales {
			dam := res.Results[scale][iostrat.Damaris]
			coll := res.Results[scale][iostrat.Collective]
			if dam.MeanIOTime() > 1 {
				t.Errorf("%s @%d: Damaris visible I/O %v s", platform, scale, dam.MeanIOTime())
			}
			if dam.TotalTime >= coll.TotalTime {
				t.Errorf("%s @%d: Damaris not faster than collective", platform, scale)
			}
		}
	}
}

func TestF1Quick(t *testing.T) {
	rep, err := RunF1(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	rep, err := RunR1(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	opts.Backend = "sdf"
	opts.BackendDir = t.TempDir()
	rep, err := RunR1(opts)
	if err != nil {
		t.Fatal(err)
	}
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
// part-by-part frame: R1's quick root object is sixteen 512-byte blocks,
// every segment is below the stand-alone size, so the object is encoded
// whole and costs no more than it did as a one-piece frame (432 bytes
// for the 8,540-byte object; encoding each segment alone cost 5,080).
func TestR1AdaptiveStoreSmallBlocks(t *testing.T) {
	opts := quick()
	opts.Backend = "sdf"
	opts.Codec = storage.AdaptiveCodec
	opts.BackendDir = t.TempDir()
	if rep, err := RunR1(opts); err != nil || !rep.AllPass() {
		t.Fatalf("R1 over the adaptive store: %v\n%s", err, rep.String())
	}
	base, err := storage.NewSDF(nil, 1, 1e9, filepath.Join(opts.BackendDir, "fail0"))
	if err != nil {
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
	rep, err := RunC1(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	rep, err := RunE9(quick())
	if err != nil {
		t.Fatal(err)
	}
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

// TestE9PinnedAdmission is the CI matrix's e9-smoke shape: the -tenants,
// -arrival and -admission flags pin the sweep to a single point and the
// cross-policy checks are skipped.
func TestE9PinnedAdmission(t *testing.T) {
	o := quick()
	o.Tenants = 8
	o.ArrivalRate = 1.0 / 10
	o.Admission = cluster.AdmitDeadline
	rep, err := RunE9(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables[0].NumRows() != 2 { // 2 tenancies × 1 rate × 1 policy
		t.Fatalf("pinned sweep rows = %d, want 2", rep.Tables[0].NumRows())
	}
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "DES deadline") {
			t.Errorf("pinned admission still ran a cross-policy check: %s", c.Name)
		}
		if !c.Pass() {
			t.Errorf("E9 pinned check failed: %s", c)
		}
	}
}
