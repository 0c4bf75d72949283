package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/nek"
	"repro/internal/plugins"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/visitsim"
)

// nekCavityXML is the Damaris description of the cavity used by E7.
const nekCavityXML = `
<simulation name="e7-cavity">
  <architecture><dedicated cores="1"/><buffer size="%d"/></architecture>
  <data>
    <parameter name="n" value="%d"/>
    <layout name="cube" type="float64" dimensions="n,n,n"/>
    <variable name="u" layout="cube"/>
    <variable name="v" layout="cube"/>
    <variable name="w" layout="cube"/>
    <variable name="p" layout="cube"/>
  </data>
</simulation>`

// RunE7 reproduces §V.C.1: in-situ visualization of the Nek proxy.
// Synchronous VisIt-style coupling stalls the simulation inside every
// pipeline execution and degrades with scale; the Damaris coupling has
// no visible impact, and when the analysis cannot keep up the shm-full
// skip policy drops frames instead of blocking the simulation.
//
// Three measurements: (1) real per-step wall times of the three coupling
// modes on the cavity; (2) the skip-policy run with an undersized
// segment; (3) a scale model of the synchronous coupling's collective
// render barrier (max over N per-rank jitter draws) versus the
// scale-independent Damaris write.
func RunE7(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{ID: "E7", Title: "in-situ visualization coupling (§V.C.1)"}

	const (
		gridN  = 20
		steps  = 16
		warmup = 3 // discard cache/JIT noise from the first steps
	)
	baseline, err := timeCavitySteps(gridN, steps, nil)
	if err != nil {
		return Report{}, err
	}
	syncTimes, err := timeCavitySteps(gridN, steps, syncAnalysis())
	if err != nil {
		return Report{}, err
	}
	damarisTimes, skipped0, err := timeDamarisCoupled(gridN, steps, 64<<20, 0)
	if err != nil {
		return Report{}, err
	}

	baseMean := stats.Summarize(baseline[warmup:]).Median
	syncMean := stats.Summarize(syncTimes[warmup:]).Median
	damMean := stats.Summarize(damarisTimes[warmup:]).Median
	couple := stats.NewTable(
		fmt.Sprintf("measured per-step wall time, %d^3 cavity, %d steps", gridN, steps),
		"coupling", "mean_step_ms", "slowdown_vs_none").Measured("mean_step_ms", "slowdown_vs_none")
	couple.AddRow("none", baseMean*1e3, 1.0)
	couple.AddRow("visit-sync", syncMean*1e3, syncMean/baseMean)
	couple.AddRow("damaris-async", damMean*1e3, damMean/baseMean)

	// Skip policy: §V.C.1's challenging case is "analysis tasks taking
	// more than the duration of a simulation time step". With the
	// segment sized for one iteration and the pipeline artificially
	// slowed past the step duration, the middleware must drop frames
	// while the simulation keeps running at full speed.
	iterBytes := 4 * gridN * gridN * gridN * 8
	slowAnalysis := time.Duration(4*baseMean*float64(time.Second)) + 20*time.Millisecond
	tinyTimes, skippedTiny, err := timeDamarisCoupled(gridN, steps, iterBytes+4096, slowAnalysis)
	if err != nil {
		return Report{}, err
	}
	skipTable := stats.NewTable(
		"skip policy under an undersized shared-memory segment",
		"segment", "mean_step_ms", "frames_dropped").Measured("mean_step_ms", "frames_dropped")
	skipTable.AddRow("ample (64 MB)", damMean*1e3, skipped0)
	skipTable.AddRow("tight (1 iteration)", stats.Mean(tinyTimes)*1e3, skippedTiny)

	// Scale model: parallel synchronous rendering ends in a barrier and
	// an image-compositing exchange (binary swap: log2(N) rounds), so
	// its cost is the max of N per-rank analysis draws plus a
	// compositing term growing with log2(N). Damaris pays the local shm
	// write regardless of N.
	scaleTable := stats.NewTable(
		"modeled per-step time at scale (grid5000 preset, measured per-rank costs)",
		"cores", "visit_sync_s", "damaris_s", "sync_penalty_x").Measured("visit_sync_s", "damaris_s", "sync_penalty_x")
	r := rng.New(opts.Seed, 77)
	shmWrite := 0.001 + damMean - baseMean // client-visible damaris cost
	if shmWrite < 0.0005 {
		shmWrite = 0.0005
	}
	analysisCost := syncMean - baseMean
	if analysisCost < baseMean/4 {
		analysisCost = baseMean / 4 // floor against timer noise
	}
	var worstPenalty float64
	for _, cores := range []int{96, 192, 384, 800} {
		maxDraw := 0.0
		for i := 0; i < cores; i++ {
			if d := analysisCost * r.UnitLogNormal(0.4); d > maxDraw {
				maxDraw = d
			}
		}
		compositing := 0.15 * analysisCost * math.Log2(float64(cores))
		syncStep := baseMean + maxDraw + compositing
		damStep := baseMean + shmWrite
		penalty := syncStep / damStep
		if penalty > worstPenalty {
			worstPenalty = penalty
		}
		scaleTable.AddRow(cores, syncStep, damStep, penalty)
	}

	rep.Tables = []*stats.Table{couple, skipTable, scaleTable}
	rep.Checks = []Check{
		{
			Name:     "sync coupling slowdown (measured)",
			Paper:    "periodically stopping the application (§V.A)",
			Measured: syncMean / baseMean, Unit: "x", Lo: 1.25, Timed: true,
		},
		{
			Name:     "Damaris coupling slowdown (measured)",
			Paper:    "no performance impact on the simulation (§V.C.1)",
			Measured: damMean / baseMean, Unit: "x", Lo: 0, Hi: 1.5, Timed: true,
		},
		{
			Name:     "Damaris step cost relative to sync coupling",
			Paper:    "analysis runs in parallel with the simulation (§V.B)",
			Measured: damMean / syncMean, Unit: "x", Lo: 0, Hi: 0.85, Timed: true,
		},
		{
			Name:     "frames dropped with tight segment",
			Paper:    "skip iterations to keep up (§V.C.1)",
			Measured: float64(skippedTiny), Unit: "frames", Lo: 1, Timed: true,
		},
		{
			// Blocking on the 20 ms analysis would inflate steps ~20x;
			// the generous band absorbs scheduler noise while still
			// distinguishing "skipped" from "blocked".
			Name:     "simulation never blocks despite drops",
			Paper:    "loss of data rather than blocking (§V.C.1)",
			Measured: stats.Summarize(tinyTimes[warmup:]).Median / baseMean, Unit: "x", Lo: 0, Hi: 3, Timed: true,
		},
		{
			Name:     "modeled sync penalty at 800 cores",
			Paper:    "VisIt synchronous did not scale to 800 cores (§V.C.1)",
			Measured: worstPenalty, Unit: "x", Lo: 1.5, Timed: true,
		},
	}
	return rep, nil
}

// timeCavitySteps advances the cavity and returns per-step wall times;
// analyze, when non-nil, runs inside every timed step: the whole
// pipeline for the VisIt-style coupling, only the hand-off to the
// dedicated core for the Damaris one.
func timeCavitySteps(gridN, steps int, analyze func(*nek.Solver, int) error) ([]float64, error) {
	params := nek.DefaultParams()
	params.N = gridN
	params.PressureIters = 8 // keep compute comparable to the pipeline cost
	solver, err := nek.New(params)
	if err != nil {
		return nil, err
	}
	times := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		t0 := time.Now()
		solver.Step()
		if analyze != nil {
			if err := analyze(solver, s); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// syncAnalysis builds the VisIt-style synchronous coupling through the
// visitsim adapter.
func syncAnalysis() func(*nek.Solver, int) error {
	var sim *visitsim.Simulation
	return func(solver *nek.Solver, step int) error {
		if sim == nil {
			sim = visitsim.Setup("e7")
			sim.SetGetMetaData(func(md *visitsim.MetaData) {
				for _, f := range solver.Fields() {
					md.AddVariable(visitsim.VariableMetaData{Name: f.Name, MeshName: "grid", Components: 1})
				}
			})
			sim.SetGetVariable(func(name string) (*visitsim.VariableData, error) {
				for _, f := range solver.Fields() {
					if f.Name == name {
						vd := &visitsim.VariableData{}
						buf := append([]float64(nil), f.Data...)
						return vd, vd.SetData(f.NZ, f.NY, f.NX, buf)
					}
				}
				return nil, fmt.Errorf("no variable %q", name)
			})
		}
		sim.TimeStepChanged(step)
		return sim.UpdatePlots()
	}
}

// timeDamarisCoupled runs the cavity with the visualization plugin on a
// dedicated core and returns per-step times plus dropped iterations.
// analysisDelay > 0 artificially slows the pipeline to model an
// expensive rendering pass.
func timeDamarisCoupled(gridN, steps, segmentBytes int, analysisDelay time.Duration) ([]float64, int, error) {
	cfg, err := meta.ParseString(fmt.Sprintf(nekCavityXML, segmentBytes, gridN))
	if err != nil {
		return nil, 0, err
	}
	viz, err := plugins.NewVisualizer(map[string]string{"bins": "32"})
	if err != nil {
		return nil, 0, err
	}
	endPlugins := []core.Plugin{viz}
	if analysisDelay > 0 {
		endPlugins = append([]core.Plugin{core.PluginFunc{
			PluginName: "slow-render",
			Fn: func(*core.PluginContext, core.Event) error {
				time.Sleep(analysisDelay)
				return nil
			},
		}}, endPlugins...)
	}
	node, err := core.NewNode(cfg, 1, core.Options{
		ExtraPlugins: map[string][]core.Plugin{"end_iteration": endPlugins},
	})
	if err != nil {
		return nil, 0, err
	}
	client := node.Client(0)
	skipped := 0
	times, err := timeCavitySteps(gridN, steps, func(solver *nek.Solver, s int) error {
		dropped := false
		for _, f := range solver.Fields() {
			if werr := client.Write(f.Name, s, compress.Float64Bytes(f.Data)); werr != nil {
				dropped = true
			}
		}
		if dropped {
			skipped++
		}
		client.EndIteration(s)
		return nil
	})
	if serr := node.Shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, 0, err
	}
	return times, skipped, nil
}
