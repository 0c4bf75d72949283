package pfs

import (
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/topology"
)

// quietParams returns a deterministic PFS (no jitter, no congestion) for
// exact-arithmetic tests.
func quietParams() topology.PFSParams {
	p := topology.Kraken(1).PFS
	p.JitterSigma = 0
	p.HeavyTailProb = 0
	p.CongestionSigma = 0
	p.FileOverhead = 0
	return p
}

func TestSingleStreamAtPeak(t *testing.T) {
	eng := des.NewEngine()
	params := quietParams()
	params.OSTBandwidth = 100e6
	fs := New(eng, params, rng.New(1, 1))
	var done float64
	eng.Spawn("w", func(p *des.Proc) {
		p.Do(fs.Write(0, 200e6, BigSequential).Then)
		done = p.Now()
	})
	eng.Run()
	if want := 2.0; done < want*0.999 || done > want*1.001 {
		t.Fatalf("single-stream write of 200MB at 100MB/s finished at %v s, want ≈ %v", done, want)
	}
	if fs.TotalBytes() != 200e6 {
		t.Fatalf("TotalBytes = %v", fs.TotalBytes())
	}
}

func TestProcessorSharingSlowdown(t *testing.T) {
	// Two concurrent big-sequential streams on one OST must each take
	// longer than alone, and aggregate efficiency must match the model:
	// eff(2) = 1/(1+alpha).
	eng := des.NewEngine()
	params := quietParams()
	params.OSTBandwidth = 100e6
	params.AlphaSeq = 0.5
	fs := New(eng, params, rng.New(1, 1))
	var t1, t2 float64
	eng.Spawn("a", func(p *des.Proc) { p.Do(fs.Write(0, 100e6, BigSequential).Then); t1 = p.Now() })
	eng.Spawn("b", func(p *des.Proc) { p.Do(fs.Write(0, 100e6, BigSequential).Then); t2 = p.Now() })
	eng.Run()
	// Aggregate rate = 100 MB/s × 1/(1.5) = 66.7 MB/s for 200 MB → 3 s.
	if t1 < 2.99 || t1 > 3.01 || t2 < 2.99 || t2 > 3.01 {
		t.Fatalf("PS completion times = %v, %v, want ≈ 3 s", t1, t2)
	}
}

func TestLateArrivalSharesRemainder(t *testing.T) {
	// Stream B arrives when A is half done; with alpha=0 they then share
	// the bandwidth equally.
	eng := des.NewEngine()
	params := quietParams()
	params.OSTBandwidth = 100e6
	params.AlphaSeq = 0
	fs := New(eng, params, rng.New(1, 1))
	var ta, tb float64
	eng.Spawn("a", func(p *des.Proc) { p.Do(fs.Write(0, 100e6, BigSequential).Then); ta = p.Now() })
	eng.SpawnAt(0.5, "b", func(p *des.Proc) { p.Do(fs.Write(0, 100e6, BigSequential).Then); tb = p.Now() })
	eng.Run()
	// A: 50 MB alone (0.5 s) + 50 MB at 50 MB/s (1 s) → 1.5 s.
	// B: 50 MB at 50 MB/s (until A leaves at 1.5) + 50 MB at 100 MB/s → 2.0 s.
	if ta < 1.49 || ta > 1.51 {
		t.Fatalf("A finished at %v, want 1.5", ta)
	}
	if tb < 1.99 || tb > 2.01 {
		t.Fatalf("B finished at %v, want 2.0", tb)
	}
}

func TestPatternOrdering(t *testing.T) {
	// With equal concurrency, shared-file streams must be served far more
	// slowly than small-file streams, which are slower than big-sequential
	// ones — the mechanism behind collective < FPP < Damaris.
	finish := func(pat Pattern) float64 {
		eng := des.NewEngine()
		fs := New(eng, quietParams(), rng.New(1, 1))
		var last float64
		for i := 0; i < 8; i++ {
			eng.Spawn("w", func(p *des.Proc) {
				p.Do(fs.Write(0, 10e6, pat).Then)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		eng.Run()
		return last
	}
	big, small, shared := finish(BigSequential), finish(SmallFile), finish(SharedFile)
	if !(big < small && small < shared) {
		t.Fatalf("pattern makespans: big=%v small=%v shared=%v, want big < small < shared",
			big, small, shared)
	}
	if shared < 5*big {
		t.Fatalf("shared-file collapse too mild: shared=%v vs big=%v", shared, big)
	}
}

func TestFileOverheadChargedPerFile(t *testing.T) {
	// Writing the same volume as many files must cost the per-file
	// overhead each time: the mechanism that rewards aggregation.
	makespan := func(files int, total float64) float64 {
		eng := des.NewEngine()
		params := quietParams()
		params.OSTBandwidth = 100e6
		params.FileOverhead = 0.5
		fs := New(eng, params, rng.New(1, 1))
		eng.Spawn("w", func(p *des.Proc) {
			for i := 0; i < files; i++ {
				p.Do(fs.Write(0, total/float64(files), BigSequential).Then)
			}
		})
		return eng.Run()
	}
	one := makespan(1, 100e6)
	ten := makespan(10, 100e6)
	// 1 file: 1 s + 0.5 s = 1.5 s; 10 files: 1 s + 5 s = 6 s.
	if one < 1.49 || one > 1.51 {
		t.Fatalf("single file took %v, want 1.5", one)
	}
	if ten < 5.99 || ten > 6.01 {
		t.Fatalf("ten files took %v, want 6", ten)
	}
}

func TestMDSSerializes(t *testing.T) {
	eng := des.NewEngine()
	params := quietParams()
	params.MDSCreate = 0.01
	fs := New(eng, params, rng.New(1, 1))
	var last float64
	const n = 100
	for i := 0; i < n; i++ {
		eng.Spawn("c", func(p *des.Proc) {
			p.Do(func(k func()) { fs.Create(func(int32) { k() }, 0) })
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.Run()
	want := float64(n) * 0.01
	if last < want*0.999 || last > want*1.001 {
		t.Fatalf("100 creates at 10ms serialized finished at %v, want %v", last, want)
	}
}

func TestZeroByteWriteCompletesImmediately(t *testing.T) {
	eng := des.NewEngine()
	fs := New(eng, quietParams(), rng.New(1, 1))
	f := fs.Write(0, 0, BigSequential)
	if !f.Done() {
		t.Fatal("zero-byte write should complete immediately")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		eng := des.NewEngine()
		p := topology.Kraken(1).PFS // with jitter enabled
		fs := New(eng, p, rng.New(42, 42))
		var times []float64
		fs.BeginPhase()
		for i := 0; i < 50; i++ {
			ostID := i % 7
			eng.Spawn("w", func(pr *des.Proc) {
				pr.Do(fs.Write(ostID, 5e6, SmallFile).Then)
				times = append(times, pr.Now())
			})
		}
		eng.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBeginPhaseCongestionOnlyHurts(t *testing.T) {
	eng := des.NewEngine()
	params := quietParams()
	params.CongestionSigma = 1.0
	params.OSTBandwidth = 100e6
	fs := New(eng, params, rng.New(3, 3))
	fs.BeginPhase()
	var done float64
	eng.Spawn("w", func(p *des.Proc) {
		p.Do(fs.Write(0, 100e6, BigSequential).Then)
		done = p.Now()
	})
	eng.Run()
	if done < 0.999 {
		t.Fatalf("congested write finished in %v s, faster than nominal 1 s", done)
	}
}
