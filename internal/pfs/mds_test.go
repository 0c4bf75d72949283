package pfs_test

import (
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/topology"
)

// TestMDSServesFIFO drives the metadata server through both cost models
// that share it (the PFS model and the flat model of storage.Memory):
// an idle server, a burst queued at one instant, operations called from
// inside a continuation (one while others queue, one on the server it
// has just drained), and a gap after the queue drains. Every
// continuation must run once, in arrival order, at exactly
// max(arrival, previous end) + service, with its own actor index.
func TestMDSServesFIFO(t *testing.T) {
	params := topology.Kraken(1).PFS
	models := []struct {
		name    string
		service float64
		build   func(*des.Engine) storage.CostModel
	}{
		{"pfs", params.MDSCreate, func(e *des.Engine) storage.CostModel {
			return storage.NewPFS(e, params, rng.New(1, 1))
		}},
		{"memory", 1e-3, func(e *des.Engine) storage.CostModel { // the flat model's metadata time
			return storage.NewMemory(e, 4, 1e9)
		}},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			eng := des.NewEngine()
			be := m.build(eng)
			var arrivals, ran []float64   // by operation, in Create order
			var order []int               // operations in the order their k ran
			var thens []func()            // by operation
			continued := func(op int32) { // the one handler, bound once
				if ran[op] >= 0 {
					t.Fatalf("operation %d continued twice", op)
				}
				ran[op] = eng.Now()
				order = append(order, int(op))
				if thens[op] != nil {
					thens[op]()
				}
			}
			var create func(then func())
			create = func(then func()) {
				op := len(arrivals)
				arrivals, ran, thens = append(arrivals, eng.Now()), append(ran, -1), append(thens, then)
				be.Create(continued, int32(op))
			}
			create(nil) // idle server
			eng.At(0.5, func() {
				for i := range 5 { // a burst at one instant
					var then func()
					switch i {
					case 2: // called while the rest of the burst queues
						then = func() { create(nil) }
					case 4: // its follower is the last queued, and calls one on the server it drains
						then = func() { create(func() { create(nil) }) }
					}
					create(then)
				}
			})
			eng.At(0.5, func() { create(nil) }) // same instant, a later event
			eng.At(2, func() { create(nil) })   // after the queue drained
			eng.Run()

			if len(order) != len(arrivals) {
				t.Fatalf("%d of %d operations continued", len(order), len(arrivals))
			}
			end := 0.0
			for i, op := range order {
				if op != i {
					t.Fatalf("continuation %d ran for operation %d: not arrival order %v", i, op, order)
				}
				if want := max(arrivals[op], end) + m.service; ran[op] != want {
					t.Errorf("operation %d (arrived %v) ended at %v, want %v", op, arrivals[op], ran[op], want)
				}
				end = ran[op]
			}
			if len(order) != 11 {
				t.Errorf("%d operations, want 11", len(order))
			}
		})
	}
}
