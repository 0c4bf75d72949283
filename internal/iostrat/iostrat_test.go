package iostrat

import (
	"errors"
	"testing"

	"repro/internal/compress"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/topology"
)

// smallConfig returns a quick configuration: a shrunken Kraken-like
// machine, a few iterations.
func smallConfig() Config {
	plat := topology.Kraken(8) // 8 nodes × 12 cores = 96 ranks
	plat.PFS.OSTs = 16
	w := CM1Workload(3)
	w.ComputeTime = 50
	return Config{Platform: plat, Workload: w, Seed: 99}
}

// flatModel returns a Config.testBase that prices a run on the
// deterministic flat cost model storage.Memory carries, sized like the
// platform's OST array, in place of the PFS model.
func flatModel(plat topology.Platform) func(*des.Engine, *rng.Stream) storage.CostModel {
	return func(eng *des.Engine, _ *rng.Stream) storage.CostModel {
		return storage.NewMemory(eng, plat.PFS.OSTs, plat.PFS.OSTBandwidth)
	}
}

func TestRunUnknownApproach(t *testing.T) {
	if _, err := Run("nonsense", smallConfig()); err == nil {
		t.Fatal("unknown approach should error")
	}
}

func TestAllApproachesConserveBytes(t *testing.T) {
	cfg := smallConfig()
	want := cfg.Workload.NodeBytes(cfg.Platform.CoresPerNode) *
		float64(cfg.Platform.Nodes) * float64(cfg.Workload.Iterations)
	for _, a := range []Approach{FilePerProcess, Collective, Damaris} {
		res, err := Run(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SkippedIters > 0 {
			continue // Damaris may legitimately drop data under pressure
		}
		if res.BytesWritten < want*0.999 || res.BytesWritten > want*1.001 {
			t.Errorf("%s wrote %v bytes, want %v", a, res.BytesWritten, want)
		}
	}
}

func TestIterationAccounting(t *testing.T) {
	cfg := smallConfig()
	for _, a := range []Approach{FilePerProcess, Collective, Damaris} {
		res, err := Run(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IOTimes) != cfg.Workload.Iterations {
			t.Errorf("%s recorded %d phases, want %d", a, len(res.IOTimes), cfg.Workload.Iterations)
		}
		for i, io := range res.IOTimes {
			if io <= 0 {
				t.Errorf("%s phase %d has non-positive duration %v", a, i, io)
			}
		}
		if res.TotalTime <= 0 {
			t.Errorf("%s total time %v", a, res.TotalTime)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := smallConfig()
	for _, a := range []Approach{FilePerProcess, Collective, Damaris} {
		r1, _ := Run(a, cfg)
		r2, _ := Run(a, cfg)
		if r1.TotalTime != r2.TotalTime || r1.BytesWritten != r2.BytesWritten {
			t.Errorf("%s is not deterministic: %v/%v vs %v/%v",
				a, r1.TotalTime, r1.BytesWritten, r2.TotalTime, r2.BytesWritten)
		}
		for i := range r1.IOTimes {
			if r1.IOTimes[i] != r2.IOTimes[i] {
				t.Errorf("%s phase %d differs across runs", a, i)
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := smallConfig()
	r1, _ := Run(FilePerProcess, cfg)
	cfg.Seed = 12345
	r2, _ := Run(FilePerProcess, cfg)
	if r1.TotalTime == r2.TotalTime {
		t.Error("different seeds produced identical totals; jitter not applied?")
	}
}

func TestDamarisHidesIO(t *testing.T) {
	cfg := smallConfig()
	fpp, _ := Run(FilePerProcess, cfg)
	dam, _ := Run(Damaris, cfg)
	// Client-visible write time: Damaris pays only the shared-memory copy.
	if dam.MeanIOTime() > 1.0 {
		t.Errorf("Damaris visible I/O phase = %v s, want well under a second", dam.MeanIOTime())
	}
	if dam.MeanIOTime() > fpp.MeanIOTime()/5 {
		t.Errorf("Damaris I/O (%v) not clearly below FPP (%v)", dam.MeanIOTime(), fpp.MeanIOTime())
	}
}

func TestDamarisComputeStretch(t *testing.T) {
	// With one of 12 cores dedicated, each compute phase stretches by
	// 12/11; total time must reflect that but stay close to pure compute.
	cfg := smallConfig()
	cfg.Workload.ComputeJitter = 0
	res, _ := Run(Damaris, cfg)
	pureCompute := cfg.Workload.ComputeTime * 12.0 / 11.0 * float64(cfg.Workload.Iterations)
	if res.TotalTime < pureCompute {
		t.Fatalf("total %v below stretched compute %v", res.TotalTime, pureCompute)
	}
	if res.TotalTime > pureCompute*1.10 {
		t.Fatalf("total %v far above stretched compute %v: I/O not hidden", res.TotalTime, pureCompute)
	}
}

func TestDamarisDedicatedAccounting(t *testing.T) {
	res, _ := Run(Damaris, smallConfig())
	if res.DedicatedTotal <= 0 || res.DedicatedBusy <= 0 {
		t.Fatalf("dedicated accounting: busy=%v total=%v", res.DedicatedBusy, res.DedicatedTotal)
	}
	if res.DedicatedBusy > res.DedicatedTotal {
		t.Fatalf("busy %v exceeds available %v", res.DedicatedBusy, res.DedicatedTotal)
	}
	if f := res.IdleFraction(); f <= 0 || f >= 1 {
		t.Fatalf("idle fraction = %v", f)
	}
}

func TestDamarisSkipsWhenShmFull(t *testing.T) {
	cfg := smallConfig()
	// Tiny segment: it cannot even hold one iteration → every iteration
	// is skipped, and the simulation never blocks.
	cfg.ShmCapacity = 1e6
	res, _ := Run(Damaris, cfg)
	if res.SkippedIters == 0 {
		t.Fatal("expected skipped iterations with a tiny shm segment")
	}
	if res.MeanIOTime() > 1.0 {
		t.Fatalf("simulation blocked despite skip policy: io=%v", res.MeanIOTime())
	}
}

func TestDamarisSchedulingHelps(t *testing.T) {
	cfg := smallConfig()
	// Stress the file system so scheduling matters: more nodes than OSTs.
	cfg.Platform = topology.Kraken(32)
	cfg.Platform.PFS.OSTs = 8
	base, _ := Run(Damaris, cfg)
	cfg.Scheduling = SchedOSTToken
	sched, _ := Run(Damaris, cfg)
	if sched.Throughput() <= base.Throughput() {
		t.Errorf("OST-token scheduling did not help: %v vs %v B/s",
			sched.Throughput(), base.Throughput())
	}
}

func TestCollectiveSlowestFPPMiddleDamarisFastest(t *testing.T) {
	cfg := smallConfig()
	coll, _ := Run(Collective, cfg)
	fpp, _ := Run(FilePerProcess, cfg)
	dam, _ := Run(Damaris, cfg)
	if !(coll.Throughput() < fpp.Throughput() && fpp.Throughput() < dam.Throughput()) {
		t.Errorf("throughput ordering violated: coll=%v fpp=%v dam=%v",
			coll.Throughput(), fpp.Throughput(), dam.Throughput())
	}
}

func TestFilesCreatedCounts(t *testing.T) {
	cfg := smallConfig()
	fpp, _ := Run(FilePerProcess, cfg)
	iters := cfg.Workload.Iterations
	if want := cfg.Platform.Cores() * iters; fpp.FilesCreated != want {
		t.Errorf("FPP files = %d, want %d", fpp.FilesCreated, want)
	}
	coll, _ := Run(Collective, cfg)
	if coll.FilesCreated != iters {
		t.Errorf("collective files = %d, want %d", coll.FilesCreated, iters)
	}
	dam, _ := Run(Damaris, cfg)
	if want := cfg.Platform.Nodes * iters; dam.FilesCreated != want {
		t.Errorf("Damaris files = %d, want %d (one per node per iteration)", dam.FilesCreated, want)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{TotalTime: 100, IOTimes: []float64{10, 20}, BytesWritten: 300, IOWindow: 3}
	if r.IOFraction() != 0.3 {
		t.Errorf("IOFraction = %v", r.IOFraction())
	}
	if r.Throughput() != 100 {
		t.Errorf("Throughput = %v", r.Throughput())
	}
	if r.MaxIOTime() != 20 || r.MeanIOTime() != 15 {
		t.Errorf("IO time stats wrong")
	}
	var zero Result
	if zero.IOFraction() != 0 || zero.Throughput() != 0 || zero.IdleFraction() != 0 {
		t.Error("zero Result should have zero derived metrics")
	}
}

func TestAggregationGranularityAblation(t *testing.T) {
	cfg := smallConfig()
	one, _ := Run(Damaris, cfg)
	cfg.FilesPerIter = 12 // one small file per core: should hurt
	many, _ := Run(Damaris, cfg)
	if many.Throughput() >= one.Throughput() {
		t.Errorf("fragmenting output did not reduce throughput: %v vs %v",
			many.Throughput(), one.Throughput())
	}
}

// TestCodecPipelineWiring: a Damaris run with the storage-codec
// pipeline moves codec-ratio fewer bytes to storage, charges codec CPU
// on the dedicated cores, leaves the application schedule untouched,
// and works in tree mode too. An unknown codec errors out up front.
func TestCodecPipelineWiring(t *testing.T) {
	cfg := smallConfig()
	plain, err := Run(Damaris, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.Codec = "gorilla"
	comp, err := Run(Damaris, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := storage.Profile("gorilla")
	if !ok {
		t.Fatal("gorilla profile missing")
	}
	ratio := plain.BytesWritten / comp.BytesWritten
	if ratio < prof.AssumedRatio*0.99 || ratio > prof.AssumedRatio*1.01 {
		t.Errorf("storage bytes ratio = %v, want ~%v", ratio, prof.AssumedRatio)
	}
	if comp.BytesSaved <= 0 || comp.CodecCPUTime <= 0 {
		t.Errorf("codec accounting missing: saved=%v cpu=%v", comp.BytesSaved, comp.CodecCPUTime)
	}
	if comp.TotalTime != plain.TotalTime {
		t.Errorf("compression visible to the simulation: %v vs %v", comp.TotalTime, plain.TotalTime)
	}
	if comp.SkippedIters != plain.SkippedIters {
		t.Errorf("compression changed skips: %d vs %d", comp.SkippedIters, plain.SkippedIters)
	}

	tcfg := ccfg
	tcfg.Fanout = 2
	tree, err := Run(Damaris, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.BytesSaved <= 0 {
		t.Error("tree mode did not run the pipeline")
	}

	bad := cfg
	bad.Codec = "bogus"
	if _, err := Run(Damaris, bad); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("unknown codec: err = %v, want ErrUnknownCodec", err)
	}

	// "none" is a disable alias: the run is the plain run.
	alias := cfg
	alias.Codec = "none"
	al, err := Run(Damaris, alias)
	if err != nil {
		t.Fatal(err)
	}
	if al.BytesSaved != 0 || al.BytesWritten != plain.BytesWritten {
		t.Errorf("codec \"none\" changed the run: saved %v, wrote %v vs %v",
			al.BytesSaved, al.BytesWritten, plain.BytesWritten)
	}
}

// TestCodecRestartRead: the restart-read model through a compressing
// backend reads the encoded volume and charges decode CPU.
func TestCodecRestartRead(t *testing.T) {
	cfg := smallConfig()
	cfg.Fanout = 4
	plain, err := RestartRead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.Codec = "gorilla"
	comp, err := RestartRead(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := storage.Profile("gorilla")
	ratio := plain.BytesRead / comp.BytesRead
	if ratio < prof.AssumedRatio*0.99 || ratio > prof.AssumedRatio*1.01 {
		t.Errorf("restart read ratio = %v, want ~%v", ratio, prof.AssumedRatio)
	}
	ccfg.Codec = "bogus"
	if _, err := RestartRead(ccfg); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Fatalf("unknown codec: err = %v, want ErrUnknownCodec", err)
	}
}
