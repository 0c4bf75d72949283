// Compression example: the §IV.D use of the dedicated cores' idle time.
// A CM1 proxy runs for a while; its fields are written through the
// sdf-writer plugin once uncompressed and once with each codec, and the
// program reports the achieved ratios and the simulation-side cost —
// which is zero by construction, because compression happens on the
// dedicated core.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	damaris "repro"
	"repro/internal/cm1"
	"repro/internal/compress"
	"repro/internal/plugins"
)

const configTemplate = `
<simulation name="cm1-compress">
  <architecture><dedicated cores="1"/><buffer size="67108864"/></architecture>
  <data>
    <parameter name="nx" value="32"/>
    <parameter name="ny" value="32"/>
    <parameter name="nz" value="24"/>
    <layout name="grid" type="float64" dimensions="nz,ny,nx"/>
    <variable name="theta" layout="grid" unit="K"/>
    <variable name="qv" layout="grid" unit="kg/kg"/>
    <variable name="w" layout="grid" unit="m/s"/>
  </data>
</simulation>`

func main() {
	steps := flag.Int("steps", 10, "CM1 steps before the measured output")
	flag.Parse()

	params := cm1.DefaultParams()
	params.NX, params.NY, params.NZ = 32, 32, 24
	model, err := cm1.New(params)
	if err != nil {
		log.Fatal(err)
	}
	for s := 0; s < *steps; s++ {
		model.Step()
	}

	fmt.Printf("codec     ratio   client write cost\n")
	for _, codec := range []string{"none", "gorilla", "flate"} {
		ratio, clientCost, err := writeOnce(model, codec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  %5.2fx  %v\n", codec, ratio, clientCost.Round(time.Microsecond))
	}
	fmt.Println("\nthe client-side cost is the shared-memory copy only: the codec")
	fmt.Println("runs on the dedicated core, so compression is free for the simulation")
}

// writeOnce pushes the model's fields through a fresh node with the
// given codec and returns the on-disk compression ratio and the
// simulation-visible write cost.
func writeOnce(model *cm1.Model, codec string) (ratio float64, clientCost time.Duration, err error) {
	dir, err := tempDir()
	if err != nil {
		return 0, 0, err
	}
	xml := configTemplate
	cfg, err := damaris.ParseConfigString(xml)
	if err != nil {
		return 0, 0, err
	}
	writer, err := newWriterPlugin(dir, codec)
	if err != nil {
		return 0, 0, err
	}
	node, err := damaris.NewNode(cfg, 1, damaris.Options{
		ExtraPlugins: map[string][]damaris.Plugin{"end_iteration": {writer}},
	})
	if err != nil {
		return 0, 0, err
	}
	client := node.Client(0)
	t0 := time.Now()
	for _, f := range model.Fields() {
		if err := client.Write(f.Name, 0, compress.Float64Bytes(f.Data)); err != nil {
			return 0, 0, err
		}
	}
	client.EndIteration(0)
	clientCost = time.Since(t0)
	node.WaitIteration(0)
	if err := node.Shutdown(); err != nil {
		return 0, 0, err
	}
	return writer.CompressionRatio(), clientCost, nil
}

// tempDir creates the output directory for one codec pass.
func tempDir() (string, error) {
	return os.MkdirTemp("", "cm1-compress-*")
}

// newWriterPlugin builds the aggregating SDF writer for one codec.
func newWriterPlugin(dir, codec string) (*plugins.SDFWriter, error) {
	return plugins.NewSDFWriter(dir, codec)
}
