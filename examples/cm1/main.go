// CM1 example: the paper's primary workload on a miniature cluster —
// by default two simulated SMP nodes of four cores each run the CM1
// proxy with real halo exchanges, and write their output three ways:
// file-per-process, collective two-phase into a shared file, and through
// Damaris dedicated cores. It prints what each approach produced and how
// long the simulation loop spent blocked on I/O.
//
// Usage:
//
//	cm1                                  # all three approaches, 8 ranks
//	cm1 -io damaris -ranks 16 -steps 40 -every 5 -codec gorilla
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	damaris "repro"
	"repro/internal/baselines"
	"repro/internal/cm1"
	"repro/internal/compress"
	"repro/internal/mpi"
)

var (
	outDir       = flag.String("out", "cm1-out", "output directory")
	ioMode       = flag.String("io", "", "run one I/O approach only: fpp, collective or damaris (default: all three)")
	ranks        = flag.Int("ranks", 8, "MPI world size")
	coresPerNode = flag.Int("cores-per-node", 4, "simulated cores per SMP node")
	totalSteps   = flag.Int("steps", 15, "simulation time steps")
	outputEvery  = flag.Int("every", 5, "output every N steps")
	codec        = flag.String("codec", "none", "damaris output codec")
)

const configTemplate = `
<simulation name="cm1-example">
  <architecture><dedicated cores="1"/><buffer size="33554432"/></architecture>
  <data>
    <parameter name="nx" value="16"/>
    <parameter name="ny" value="16"/>
    <parameter name="nz" value="12"/>
    <layout name="grid" type="float64" dimensions="nz,ny,nx"/>
    <variable name="theta" layout="grid" unit="K"/>
    <variable name="qv" layout="grid" unit="kg/kg"/>
    <variable name="w" layout="grid" unit="m/s"/>
  </data>
  <plugins>
    <plugin name="sdf-writer" event="end_iteration" dir="%s" codec="%s"/>
  </plugins>
</simulation>`

func main() {
	flag.Parse()
	if *ranks%*coresPerNode != 0 {
		log.Fatalf("ranks (%d) must be a multiple of cores-per-node (%d)", *ranks, *coresPerNode)
	}
	modes := []string{"fpp", "collective", "damaris"}
	if *ioMode != "" {
		if !slices.Contains(modes, *ioMode) {
			log.Fatalf("unknown -io mode %q", *ioMode)
		}
		modes = []string{*ioMode}
	}
	for _, mode := range modes {
		dir := filepath.Join(*outDir, mode)
		blocked, err := run(mode, dir)
		if err != nil {
			log.Fatalf("%s: %v", mode, err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.sdf"))
		fmt.Printf("%-10s  files=%2d  simulation blocked on I/O for %8.3f ms\n",
			mode, len(files), blocked.Seconds()*1e3)
	}
}

// run executes the proxy under one I/O mode and returns the total time
// the simulation ranks spent inside output calls.
func run(mode, dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}

	// Damaris mode: one node runtime per simulated SMP node.
	var nodeRuntimes []*damaris.Node
	if mode == "damaris" {
		for n := 0; n < *ranks / *coresPerNode; n++ {
			cfgXML := fmt.Sprintf(configTemplate, dir, *codec)
			node, err := damaris.NewNodeFromXML(cfgXML, *coresPerNode, damaris.Options{NodeID: n})
			if err != nil {
				return 0, err
			}
			nodeRuntimes = append(nodeRuntimes, node)
		}
	}

	var mu sync.Mutex
	var blocked time.Duration
	var runErr error

	mpi.Run(*ranks, func(c *mpi.Comm) {
		model, err := cm1.New(cm1.DefaultParams(), c)
		if err != nil {
			mu.Lock()
			runErr = err
			mu.Unlock()
			return
		}
		node := c.Rank() / *coresPerNode
		local := c.Rank() % *coresPerNode
		for step := 1; step <= *totalSteps; step++ {
			model.Step()
			if step%*outputEvery != 0 {
				continue
			}
			it := step / *outputEvery
			t0 := time.Now()
			switch mode {
			case "fpp":
				_, err = baselines.WriteFPP(c, dir, "cm1", it, model.Fields())
			case "collective":
				_, err = baselines.WriteCollective(c, *coresPerNode, dir, "cm1", it, model.Fields())
			case "damaris":
				client := nodeRuntimes[node].Client(local)
				for _, f := range model.Fields() {
					if werr := client.Write(f.Name, it, compress.Float64Bytes(f.Data)); werr != nil {
						err = werr
						break
					}
				}
				client.EndIteration(it)
			}
			mu.Lock()
			blocked += time.Since(t0)
			if err != nil && runErr == nil {
				runErr = err
			}
			mu.Unlock()
		}
	})

	for _, n := range nodeRuntimes {
		if err := n.Shutdown(); err != nil && runErr == nil {
			runErr = err
		}
	}
	return blocked, runErr
}
