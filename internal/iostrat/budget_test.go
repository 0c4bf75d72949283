package iostrat

import (
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
)

// desWorkBudgets is the ratchet table of the engine work one strategy
// run costs without reduction layers, by shape/model/strategy. events
// is exact: a simulated core that is a state machine books the very
// events its coroutine used to, one for one, so a change to it changed
// the model or its event order. spawns is a ceiling that may only come
// down: the per-core ranks spawn nothing, which leaves Damaris one
// dedicated core per node.
var desWorkBudgets = map[string]struct {
	events uint64
	spawns int
}{
	"toy/pfs/fpp":              {2394, 0},
	"toy/pfs/collective":       {2996, 0},
	"toy/pfs/damaris-flat":     {1287, 8},
	"toy/pfs/damaris-tree":     {1238, 8},
	"toy/memory/fpp":           {2450, 0},
	"toy/memory/collective":    {2316, 0},
	"toy/memory/damaris-flat":  {1284, 8},
	"toy/memory/damaris-tree":  {1257, 8},
	"1152/pfs/fpp":             {20936, 0},
	"1152/pfs/collective":      {24392, 0},
	"1152/pfs/damaris-flat":    {10749, 96},
	"1152/pfs/damaris-tree":    {10456, 96},
	"1152/memory/fpp":          {20166, 0},
	"1152/memory/collective":   {19000, 0},
	"1152/memory/damaris-flat": {10744, 96},
	"1152/memory/damaris-tree": {10758, 96},
}

// TestDESWorkBudgets runs the four strategies at the 96-core toy shape
// and at 1,152 cores, on the PFS and the flat model, and holds the
// engine to desWorkBudgets.
func TestDESWorkBudgets(t *testing.T) {
	shapes := map[string]func() Config{"toy": smallConfig, "1152": pinnedStrategyConfig}
	for shape, config := range shapes {
		for _, model := range []string{"pfs", "memory"} {
			for _, s := range pinnedStrategies {
				name := shape + "/" + model + "/" + s.name
				t.Run(name, func(t *testing.T) {
					cfg := config()
					cfg.Fanout = s.fanout
					// Capture the run's engine through the base-model
					// hook; its PFS branch builds what the default does.
					var eng *des.Engine
					flat := flatModel(cfg.Platform)
					cfg.testBase = func(e *des.Engine, r *rng.Stream) storage.CostModel {
						eng = e
						if model == "memory" {
							return flat(e, r)
						}
						return storage.NewPFS(e, cfg.Platform.PFS, r)
					}
					if _, err := Run(s.approach, cfg); err != nil {
						t.Fatal(err)
					}
					want := desWorkBudgets[name]
					if got := eng.EventsDispatched(); got != want.events {
						t.Errorf("%d events dispatched, want exactly %d", got, want.events)
					}
					if got := eng.ProcsSpawned(); got > want.spawns {
						t.Errorf("%d processes spawned, ceiling %d", got, want.spawns)
					}
				})
			}
		}
	}
}
