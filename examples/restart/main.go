// Restart example: the checkpoint/restart workload end to end. A
// nine-node cluster writes four iterations of objects plus per-
// iteration manifests into an on-disk SDF store — compressed, via the
// adaptive codec pipeline — losing one interior aggregation node
// halfway through. A second phase — pretending to be a fresh process
// after a crash — opens the store, restores the run from its
// manifests (frames decode transparently on Get), picks the latest
// fully-complete checkpoint, and verifies the recovered per-node
// state byte-for-byte against what the simulation wrote: compression
// is invisible to the restart except in the stored byte counts.
//
//	write:   leaf → interior → root → encode+frame → {object, manifest}
//	restart: manifests → framed objects → decode → DecodeBatch → blocks
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"

	damaris "repro"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
	"repro/internal/topology"
)

const configXML = `
<simulation name="restartdemo">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="1048576"/>
  </architecture>
  <data>
    <parameter name="n" value="128"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row" unit="K"/>
  </data>
</simulation>`

const (
	nodes      = 9
	clients    = 2 // per node, plus 1 dedicated core
	iterations = 4
	deadNode   = 1
	failAt     = 2
)

// field builds the deterministic payload for (node, source, iteration):
// a smooth float64 profile (as the layout declares), so the restore can
// be verified byte-for-byte and the codec pipeline has something real
// to compress.
func field(n, s, it int) []byte {
	p := make([]byte, 128*8)
	for i := 0; i < 128; i++ {
		v := 300.0 + float64(n) + float64(s)/4 + 2*math.Sin(float64(i+it*3)/11.0)
		binary.LittleEndian.PutUint64(p[i*8:], math.Float64bits(v))
	}
	return p
}

func main() {
	dir, err := os.MkdirTemp("", "restart-objects-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Phase 1: the original run, with a mid-run node death. ----
	cfg, err := damaris.ParseConfigString(configXML)
	if err != nil {
		log.Fatal(err)
	}
	sdfStore, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		log.Fatal(err)
	}
	// The compression pipeline wraps any backend: every root object is
	// trial-encoded per dataset, framed with its codec choice, and
	// manifests record the codec and sizes.
	store, err := chunk.Stack(sdfStore, storage.AdaptiveCodec, nil)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "demo", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   2,
		Store:    store,
	}, cluster.RunSpec{
		Meta:     cfg,
		Failures: cluster.NewFailureSchedule().Add(deadNode, failAt),
	})
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		for s := 0; s < clients; s++ {
			cl := c.Client(n, s)
			for it := 0; it < iterations; it++ {
				if err := cl.Write("theta", it, field(n, s, it)); err != nil {
					log.Fatal(err)
				}
				cl.EndIteration(it)
			}
		}
	}
	c.WaitIteration(iterations - 1)
	if err := c.Shutdown(); err != nil {
		log.Fatal(err)
	}
	st := c.Stats()
	fmt.Printf("run finished: %d objects + %d manifests in %s\n",
		st.ObjectsWritten, st.ManifestsWritten, dir)
	acc := store.Accounting()
	fmt.Printf("compression: %d objects framed, %d -> %d bytes\n",
		acc.ObjectsCompressed, acc.ObjectRawBytes, acc.ObjectEncodedBytes)
	fmt.Printf("node %d died at iteration %d: %d blocks lost\n\n", deadNode, failAt, st.BlocksLost)

	// ---- Phase 2: restart. A fresh backend over the same directory —
	// everything below here uses only what is on disk; the frame
	// headers inside the store say how to decode each object. ----
	sdfReader, err := storage.NewSDF(nil, 4, 1e9, dir)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cluster.Restore(chunk.ReadStack(sdfReader), "restartdemo")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range r.Problems {
		fmt.Printf("restore problem: %v\n", p)
	}
	fmt.Printf("restored %d manifests covering %d iterations, %d blocks total\n",
		r.Manifests, len(r.Iterations), r.TotalBlocks())
	for _, it := range r.IterationNumbers() {
		ri := r.Iterations[it]
		mark := "complete checkpoint"
		if !ri.Complete(nodes) {
			mark = fmt.Sprintf("%d/%d nodes — dead node's data is gone", len(ri.Covers), nodes)
		}
		fmt.Printf("  iteration %d: %2d blocks, %s\n", it, len(ri.Blocks), mark)
	}

	ckpt, ok := r.LatestComplete(nodes)
	if !ok {
		log.Fatal("no fully-complete checkpoint to restart from")
	}
	fmt.Printf("\nrestarting from iteration %d (latest complete checkpoint)\n", ckpt)

	// Load the checkpoint back as per-node state and verify every block
	// against what the simulation originally produced.
	state := r.NodeBlocks(ckpt)
	verified := 0
	for n, blocks := range state {
		for _, blk := range blocks {
			if !bytes.Equal(blk.Data, field(n, blk.Source, ckpt)) {
				log.Fatalf("node %d source %d: restored payload differs", n, blk.Source)
			}
			verified++
		}
	}
	fmt.Printf("verified %d blocks across %d nodes byte-for-byte\n", verified, len(state))

	// Replay is the read-side mirror of a cluster hook: the same logic
	// that could have run in-situ runs here over the stored iterations.
	var replayed []int
	err = r.Replay(func(it int, b *cluster.Batch) error {
		replayed = append(replayed, it)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed iterations %v through a hook-style callback\n", replayed)
	fmt.Println("\nthe simulation would now resume computing from iteration", ckpt+1)
}
