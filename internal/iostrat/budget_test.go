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
// (krakenTree) written and restarted on the PFS model. events is exact:
// every simulated actor is a state machine that books the very events
// its coroutine used to, one for one, so a change to it changed the
// model or its event order. spawns counts des.Proc adapters, which no
// model uses, so every ceiling is 0. allocs, for the 1,152-core rows
// and the toy restart, is a ceiling on the heap allocations of one
// whole run (testing.AllocsPerRun), set just above the count measured
// when it was last lowered; 0 checks none.
var desWorkBudgets = map[string]struct {
	events uint64
	spawns int
	allocs float64
}{
	"toy/pfs/fpp":              {2394, 0, 0},
	"toy/pfs/collective":       {2996, 0, 0},
	"toy/pfs/damaris-flat":     {1287, 0, 0},
	"toy/pfs/damaris-tree":     {1238, 0, 0},
	"toy/memory/fpp":           {2450, 0, 0},
	"toy/memory/collective":    {2316, 0, 0},
	"toy/memory/damaris-flat":  {1284, 0, 0},
	"toy/memory/damaris-tree":  {1257, 0, 0},
	"1152/pfs/fpp":             {20936, 0, 32300},
	"1152/pfs/collective":      {24392, 0, 31200},
	"1152/pfs/damaris-flat":    {10749, 0, 16800},
	"1152/pfs/damaris-tree":    {10456, 0, 16050},
	"1152/memory/fpp":          {20166, 0, 31300},
	"1152/memory/collective":   {19000, 0, 29700},
	"1152/memory/damaris-flat": {10744, 0, 15600},
	"1152/memory/damaris-tree": {10758, 0, 15700},
	"toy/pfs/kraken-tree":      {1382, 0, 0},
	"toy/pfs/restart":          {75, 0, 200},
	"1152/pfs/kraken-tree":     {12478, 0, 17500},
	"1152/pfs/restart":         {1403, 0, 2900},
}

// TestDESWorkBudgets runs the four strategies at the 96-core toy shape
// and at 1,152 cores, on the PFS and the flat model, plus the krakenTree
// write and restart read on the PFS model, and holds the engine to
// desWorkBudgets. AllocsPerRun measures at GOMAXPROCS 1 whatever -cpu
// says, so the ceilings hold at any setting; under -race only the event
// and spawn checks run, since the detector allocates on its own account.
func TestDESWorkBudgets(t *testing.T) {
	shapes := map[string]func() Config{"toy": smallConfig, "1152": pinnedStrategyConfig}
	for shape, config := range shapes {
		for _, model := range []string{"pfs", "memory"} {
			for _, s := range pinnedStrategies {
				checkDESBudget(t, shape+"/"+model+"/"+s.name, model, func() Config {
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
}

// checkDESBudget runs one desWorkBudgets row: run on config's
// configuration over the named base model.
func checkDESBudget(t *testing.T, name, model string, config func() Config, run func(Config) error) {
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
		allocs := testing.AllocsPerRun(2, func() {
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want.allocs {
			t.Errorf("%v allocations per run, ceiling %v", allocs, want.allocs)
		}
	})
}
