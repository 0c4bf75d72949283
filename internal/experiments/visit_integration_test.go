package experiments

import (
	"fmt"
	"time"

	"repro/internal/nek"
	"repro/internal/visitsim"
)

// runVisItCoupled advances the same cavity with VisIt-style synchronous
// in-situ coupling: the simulation must expose its data model through
// metadata, mesh and data-access callbacks, register control commands,
// drive the tool's control flow from its main loop, and stall inside
// UpdatePlots while the pipeline runs. Every marked line below is
// instrumentation a simulation author has to write — the >100 lines the
// paper measures for the VisIt examples (§V.C.2).
func runVisItCoupled(steps int, gridN int, outDir string) (stepTimes []time.Duration, err error) {
	params := nek.DefaultParams()
	params.N = gridN
	solver, err := nek.New(params)
	if err != nil {
		return nil, err
	}
	// BEGIN-INSTRUMENTATION visit
	// 1. Environment setup and connection bootstrap.
	sim := visitsim.Setup("cavity")
	renderEvery := 1
	saveImages := true

	// 2. Control commands the tool can send back to the simulation: the
	//    author has to wire each one into the run loop's state machine.
	sim.AddCommand("halt", func() {
		sim.SetMode("stopped")
	})
	sim.AddCommand("run", func() {
		sim.SetMode("running")
	})
	sim.AddCommand("render_off", func() {
		saveImages = false
	})
	sim.AddCommand("render_on", func() {
		saveImages = true
	})

	// 3. Metadata callback: describe the mesh and every variable in the
	//    tool's vocabulary, by hand, one declaration at a time.
	sim.SetGetMetaData(func(md *visitsim.MetaData) {
		md.AddMesh(visitsim.MeshMetaData{
			Name:            "cavity_grid",
			MeshType:        "rectilinear",
			TopologicalDim:  3,
			SpatialDim:      3,
			NumberOfDomains: 1,
		})
		md.AddVariable(visitsim.VariableMetaData{
			Name:       "u",
			MeshName:   "cavity_grid",
			Centering:  "nodal",
			Units:      "m/s",
			Components: 1,
		})
		md.AddVariable(visitsim.VariableMetaData{
			Name:       "v",
			MeshName:   "cavity_grid",
			Centering:  "nodal",
			Units:      "m/s",
			Components: 1,
		})
		md.AddVariable(visitsim.VariableMetaData{
			Name:       "w",
			MeshName:   "cavity_grid",
			Centering:  "nodal",
			Units:      "m/s",
			Components: 1,
		})
		md.AddVariable(visitsim.VariableMetaData{
			Name:       "p",
			MeshName:   "cavity_grid",
			Centering:  "zonal",
			Units:      "Pa",
			Components: 1,
		})
	})

	// 4. Mesh callback: build the coordinate arrays the tool's data
	//    model wants for a rectilinear grid.
	sim.SetGetMesh(func(name string) (*visitsim.MeshData, error) {
		if name != "cavity_grid" {
			return nil, fmt.Errorf("unknown mesh %q", name)
		}
		coords := func(n int) []float64 {
			cs := make([]float64, n)
			for i := range cs {
				cs[i] = float64(i)
			}
			return cs
		}
		md := &visitsim.MeshData{}
		if err := md.SetCoords(coords(gridN), coords(gridN), coords(gridN)); err != nil {
			return nil, err
		}
		return md, nil
	})

	// 5. Domain-list callback (single domain here, but the tool asks).
	sim.SetGetDomainList(func() []int {
		return []int{0}
	})

	// 6. Data-access callback: translate each tool-side variable request
	//    into the simulation's internal storage, with an explicit copy
	//    into the tool's buffer layout.
	sim.SetGetVariable(func(name string) (*visitsim.VariableData, error) {
		for _, f := range solver.Fields() {
			if f.Name != name {
				continue
			}
			buf := make([]float64, len(f.Data))
			copy(buf, f.Data)
			vd := &visitsim.VariableData{}
			if err := vd.SetData(f.NZ, f.NY, f.NX, buf); err != nil {
				return nil, err
			}
			return vd, nil
		}
		return nil, fmt.Errorf("unknown variable %q", name)
	})
	// END-INSTRUMENTATION
	for step := 0; step < steps; step++ {
		t0 := time.Now()
		solver.Step()
		// BEGIN-INSTRUMENTATION visit
		// 7. Main-loop surgery: poll the control state, notify the tool
		//    of the new time step, then block inside the synchronous
		//    pipeline execution and image dump before the next compute
		//    step may start.
		if sim.Mode() == "stopped" {
			if !sim.ProcessEngineCommand("run") {
				return nil, fmt.Errorf("control loop wedged")
			}
		}
		sim.TimeStepChanged(step)
		if step%renderEvery == 0 {
			if err := sim.UpdatePlots(); err != nil {
				return nil, err
			}
			if saveImages {
				if _, err := sim.SaveWindow(outDir, "visit"); err != nil {
					return nil, err
				}
			}
		}
		// END-INSTRUMENTATION
		stepTimes = append(stepTimes, time.Since(t0))
	}
	return stepTimes, nil
}
