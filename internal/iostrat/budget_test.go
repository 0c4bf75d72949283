package iostrat

import (
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
)

// desWorkBudgets is the ratchet table of the engine work one strategy
// run costs, by shape/model/strategy: the four strategies without
// reduction layers, and the des-kraken workload's tree configuration
// (krakenTree) written and restarted on the PFS model, plus the whole
// des-kraken round at 9,216 cores (its restart read and its four write
// runs, krakenStrategies), and the 1,152-core flat Damaris run on twice
// the OSTs (pfs-672), which must allocate exactly what it does on 336.
// events is exact: a run books its events deterministically, so a
// change to the count changed the model or its event order (a
// transfer's follower running in an event of its own instead of inline,
// say). spawns counts des.Proc adapters, which no model uses, so every
// ceiling is 0. allocs, for the 1,152-core and 9,216-core rows and the
// toy restart, is a ceiling on the heap allocations of one whole run
// (testing.AllocsPerRun), set just above the count measured when it was
// last lowered; 0 checks none.
var desWorkBudgets = map[string]struct {
	events uint64
	spawns int
	allocs float64
}{
	"toy/pfs/fpp":               {1159, 0, 0},
	"toy/pfs/collective":        {1463, 0, 0},
	"toy/pfs/damaris-flat":      {137, 0, 0},
	"toy/pfs/damaris-tree":      {109, 0, 0},
	"toy/memory/fpp":            {1398, 0, 0},
	"toy/memory/collective":     {1461, 0, 0},
	"toy/memory/damaris-flat":   {137, 0, 0},
	"toy/memory/damaris-tree":   {104, 0, 0},
	"1152/pfs/fpp":              {9223, 0, 700},
	"1152/pfs/collective":       {11545, 0, 330},
	"1152/pfs/damaris-flat":     {1063, 0, 100},
	"1152/pfs/damaris-tree":     {952, 0, 890},
	"1152/memory/fpp":           {10876, 0, 1400},
	"1152/memory/collective":    {11534, 0, 540},
	"1152/memory/damaris-flat":  {1062, 0, 450},
	"1152/memory/damaris-tree":  {918, 0, 1240},
	"toy/pfs/kraken-tree":       {253, 0, 0},
	"toy/pfs/restart":           {75, 0, 80},
	"1152/pfs/kraken-tree":      {2974, 0, 1070},
	"1152/pfs/restart":          {1398, 0, 150},
	"1152/pfs-672/damaris-flat": {1063, 0, 100},
	"9216/pfs/restart":          {4404, 0, 480},
	"9216/pfs/fpp":              {73772, 0, 1950},
	"9216/pfs/damaris":          {8457, 0, 690},
	"9216/pfs/collective":       {92259, 0, 2000},
	"9216/pfs/tree":             {10156, 0, 8100},
}

// TestDESWorkBudgets runs the four strategies at the 96-core toy shape
// and at 1,152 cores, on the PFS and the flat model, plus the krakenTree
// write and restart read on the PFS model and the des-kraken round's
// restart read and four write runs at 9,216 cores, and holds the engine to
// desWorkBudgets. AllocsPerRun measures at GOMAXPROCS 1 whatever -cpu
// says, so the ceilings hold at any setting; under -race only the event
// and spawn checks run, since the detector allocates on its own account.
func TestDESWorkBudgets(t *testing.T) {
	shapes := map[string]func() Config{"toy": smallConfig, "1152": pinnedStrategyConfig}
	allocs := map[string]float64{}
	for shape, config := range shapes {
		for _, model := range []string{"pfs", "memory"} {
			for _, s := range pinnedStrategies {
				name := shape + "/" + model + "/" + s.name
				allocs[name] = checkDESBudget(t, name, model, func() Config {
					cfg := config()
					cfg.Fanout = s.fanout
					return cfg
				}, func(cfg Config) error { _, err := Run(s.approach, cfg); return err })
			}
		}
		krakenConfig := func() Config {
			cfg := config()
			krakenTree(&cfg)
			return cfg
		}
		checkDESBudget(t, shape+"/pfs/kraken-tree", "pfs", krakenConfig,
			func(cfg Config) error { _, err := Run(Damaris, cfg); return err })
		checkDESBudget(t, shape+"/pfs/restart", "pfs", krakenConfig,
			func(cfg Config) error { _, err := RestartRead(cfg); return err })
	}
	// An OST is a slot in a slice, not a heap object: on twice the
	// targets, which the flat run's node files never reach, the run books
	// the same events and allocates exactly as often.
	on672 := checkDESBudget(t, "1152/pfs-672/damaris-flat", "pfs", func() Config {
		cfg := pinnedStrategyConfig()
		cfg.Platform.PFS.OSTs *= 2
		return cfg
	}, func(cfg Config) error { _, err := Run(Damaris, cfg); return err })
	if on336 := allocs["1152/pfs/damaris-flat"]; on336 != on672 {
		t.Errorf("the flat 1,152-core run allocates %v times on 336 OSTs and %v on 672", on336, on672)
	}
	checkDESBudget(t, "9216/pfs/restart", "pfs", func() Config { return krakenConfig(true) },
		func(cfg Config) error { _, err := RestartRead(cfg); return err })
	for _, s := range krakenStrategies {
		checkDESBudget(t, "9216/pfs/"+s.name, "pfs", func() Config { return krakenConfig(s.tree) },
			func(cfg Config) error { _, err := Run(s.approach, cfg); return err })
	}
}

// checkDESBudget runs one desWorkBudgets row: run on config's
// configuration over the named base model. It returns the allocations
// it measured (0 when it measured none).
func checkDESBudget(t *testing.T, name, model string, config func() Config, run func(Config) error) (allocs float64) {
	t.Run(name, func(t *testing.T) {
		cfg := config()
		// Capture the run's engine through the base-model hook; its PFS
		// branch builds what the default does.
		var eng *des.Engine
		flat := flatModel(cfg.Platform)
		cfg.testBase = func(e *des.Engine, r *rng.Stream) storage.CostModel {
			eng = e
			if model == "memory" {
				return flat(e, r)
			}
			return storage.NewPFS(e, cfg.Platform.PFS, r)
		}
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		want := desWorkBudgets[name]
		if got := eng.EventsDispatched(); got != want.events {
			t.Errorf("%d events dispatched, want exactly %d", got, want.events)
		}
		if got := eng.ProcsSpawned(); got > want.spawns {
			t.Errorf("%d processes spawned, ceiling %d", got, want.spawns)
		}
		if want.allocs == 0 || raceEnabled {
			return // the ceilings are plain-build counts
		}
		allocs = testing.AllocsPerRun(2, func() {
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d events, %v allocations", eng.EventsDispatched(), allocs)
		if allocs > want.allocs {
			t.Errorf("%v allocations per run, ceiling %v", allocs, want.allocs)
		}
	})
	return allocs
}
