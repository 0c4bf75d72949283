// Quickstart: the smallest complete Damaris integration — one node,
// four simulation cores and one dedicated core, as a one-node cluster.
// The dedicated core runs the XML-configured stats plugin and stores
// each iteration, compressed by the adaptive codec, as an SDF object
// in quickstart-out/; the program then restores the run from that
// directory. Inspect the store with `go run ./cmd/sdfdump quickstart-out`.
package main

import (
	"fmt"
	"log"
	"math"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

const configXML = `
<simulation name="quickstart">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="16777216"/>
    <queue size="64"/>
  </architecture>
  <data>
    <parameter name="nx" value="24"/>
    <parameter name="ny" value="24"/>
    <parameter name="nz" value="16"/>
    <layout name="grid" type="float64" dimensions="nz,ny,nx"/>
    <mesh name="domain" type="rectilinear" origin="0,0,0" spacing="1,1,1"/>
    <variable name="temperature" layout="grid" mesh="domain" unit="K"/>
  </data>
  <plugins>
    <plugin name="stats" event="end_iteration"/>
  </plugins>
</simulation>`

const (
	dir        = "quickstart-out"
	cores      = 4
	iterations = 3
)

func main() {
	cfg, err := damaris.ParseConfigString(configXML)
	if err != nil {
		log.Fatal(err)
	}
	base, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		log.Fatal(err)
	}
	store, err := chunk.Stack(base, storage.AdaptiveCodec, nil)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Nodes: 1, CoresPerNode: cores + 1},
		Store:    store,
	}, cluster.RunSpec{Meta: cfg})
	if err != nil {
		log.Fatal(err)
	}

	for it := 0; it < iterations; it++ {
		for src := 0; src < cores; src++ {
			client := c.Client(0, src)
			if err := client.Write("temperature", it, computeSlab(src, it)); err != nil {
				log.Fatalf("core %d: %v", src, err)
			}
			client.EndIteration(it)
		}
	}
	c.WaitIteration(iterations - 1)
	if err := c.Shutdown(); err != nil {
		log.Fatal(err)
	}
	st := c.Node(0).Stats()
	fmt.Printf("quickstart: %d blocks (%d bytes) handed to the dedicated core\n",
		st.BlocksWritten, st.BytesWritten)

	r, err := cluster.Restore(store, cfg.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %d blocks of %d iterations from %s/\n",
		r.TotalBlocks(), len(r.IterationNumbers()), dir)
}

// computeSlab stands in for a simulation's compute phase: each core
// produces its share of a warm blob drifting across the domain.
func computeSlab(src, it int) []byte {
	const nz, ny, nx = 16, 24, 24
	vals := make([]float64, nz*ny*nx)
	cx := float64((it*4 + src*6) % nx) // drifting center
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				d := math.Hypot(float64(i)-cx, float64(j)-12)
				vals[(k*ny+j)*nx+i] = 300 + 5*math.Exp(-d*d/40)
			}
		}
	}
	return compress.Float64Bytes(vals)
}
