package experiments

import (
	"fmt"
	"log"
	"time"

	damaris "repro"
	"repro/internal/compress"
	"repro/internal/nek"
)

// The data description lives in an external XML file, exactly as with
// the original middleware — it is configuration, not code change, so it
// does not count toward the instrumentation the paper measures (§V.C.2).
const damarisXML = `
<simulation name="cavity">
  <architecture><dedicated cores="1"/><buffer size="33554432"/></architecture>
  <data>
    <parameter name="n" value="%d"/>
    <layout name="cube" type="float64" dimensions="n,n,n"/>
    <variable name="u" layout="cube" unit="m/s"/>
    <variable name="v" layout="cube" unit="m/s"/>
    <variable name="w" layout="cube" unit="m/s"/>
    <variable name="p" layout="cube" unit="Pa"/>
  </data>
  <plugins>
    <plugin name="visualize" event="end_iteration" dir="%s" bins="32"/>
  </plugins>
</simulation>`

// must keeps the example terse; a production integration would handle
// the error (it is part of neither coupling's instrumentation count).
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// runDamarisCoupled advances the cavity and ships each step's fields to
// the dedicated core, which runs the same visualization pipeline
// asynchronously. The instrumentation added to the simulation is the
// marked lines — one write per data object plus the iteration mark, as
// the paper claims (§V.C.2).
func runDamarisCoupled(steps int, gridN int, outDir string) (stepTimes []time.Duration, err error) {
	params := nek.DefaultParams()
	params.N = gridN
	solver, err := nek.New(params)
	if err != nil {
		return nil, err
	}
	// BEGIN-INSTRUMENTATION damaris
	node := must(damaris.NewNodeFromXML(fmt.Sprintf(damarisXML, gridN, outDir), 1, damaris.Options{}))
	client := node.Client(0)
	// END-INSTRUMENTATION
	for step := 0; step < steps; step++ {
		t0 := time.Now()
		solver.Step()
		// BEGIN-INSTRUMENTATION damaris
		for _, f := range solver.Fields() {
			client.Write(f.Name, step, compress.Float64Bytes(f.Data))
		}
		client.EndIteration(step)
		// END-INSTRUMENTATION
		stepTimes = append(stepTimes, time.Since(t0))
	}
	// BEGIN-INSTRUMENTATION damaris
	err = node.Shutdown()
	// END-INSTRUMENTATION
	return stepTimes, err
}
