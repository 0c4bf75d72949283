// Package damaris is the public API of this reproduction of "Efficient
// I/O using Dedicated Cores in Large-Scale HPC Simulations" (Dorier,
// IPDPS PhD Forum 2013) — a Go implementation of the Damaris middleware:
// dedicate one or a few cores per multicore node to asynchronous I/O and
// data management, and hand data from the simulation cores to them
// through node-local shared memory.
//
// A minimal integration is a handful of lines (the §V.C.2 usability
// claim):
//
//	node, _ := damaris.NewNodeFromXML(configXML, cores, damaris.Options{})
//	client := node.Client(coreID)
//	for it := 0; it < steps; it++ {
//		compute()
//		client.Write("theta", it, thetaBytes) // ≈0.1 s, never blocks on the PFS
//		client.EndIteration(it)
//	}
//	node.Shutdown()
//
// What the variables look like and which plugins run on the dedicated
// core (statistics, in-situ visualization, or user plugins) live in the
// external XML description, as in the original middleware. See the
// package Example and internal/cluster's examples for complete
// programs, and internal/experiments for the paper's evaluation.
//
// # Storing iterations
//
// Durable output goes through internal/cluster at any node count: it
// instantiates N such nodes from a topology.Platform and wires their
// dedicated cores into a k-ary cross-node aggregation forest. Leaf
// dedicated cores forward each completed iteration's blocks upward,
// interior nodes batch their subtree, and tree roots store one large
// sequential object per iteration, plus a manifest, through a storage
// backend (internal/storage: local SDF files, or an in-memory store for
// tests), compressed and optionally deduplicated by chunk.Stack. A
// single node is a one-node cluster (the package Example):
//
//	cfg, _ := damaris.ParseConfigString(configXML)
//	base, _ := storage.NewSDF(nil, 1, 1e9, "out")
//	store, _ := chunk.Stack(base, storage.AdaptiveCodec, nil)
//	c, _ := cluster.New(cluster.ClusterConfig{
//		Platform: topology.Platform{Nodes: 1, CoresPerNode: cores + 1},
//		Fanout:   4, // children per interior node, past one node
//		Store:    store,
//	}, cluster.RunSpec{Meta: cfg})
//	client := c.Client(nodeID, coreID)
//	client.Write("theta", it, thetaBytes)
//	client.EndIteration(it)
//	...
//	c.WaitIteration(lastIt)
//	c.Shutdown()
//	restored, _ := cluster.Restore(store, cfg.Name) // blocks per iteration
//
// Cluster-wide end-of-iteration plugins (cluster.Hook) run at the tree
// roots with the merged batch. cluster.New's example is the multi-node
// version. `damaris-bench -nodes 16` does not start a Cluster for the
// paper's experiments: it runs them on the DES face, whose tree-mode
// legs route through the same cluster.Forest.
package damaris

import (
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/meta"

	// Importing the built-in plugins registers them (stats, visualize)
	// so XML configurations can name them.
	_ "repro/internal/plugins"
)

// Re-exported middleware types; see the internal/core and internal/meta
// documentation for details.
type (
	// Node is one SMP node's Damaris instance: shared-memory segment,
	// event queue, block index and the dedicated-core server.
	Node = core.Node
	// Client is the per-simulation-core handle (Write, Alloc, Signal,
	// EndIteration).
	Client = core.Client
	// Options tunes NewNode beyond the XML configuration.
	Options = core.Options
	// Plugin is a user-provided action run on the dedicated core.
	Plugin = core.Plugin
	// PluginFunc adapts a function to the Plugin interface.
	PluginFunc = core.PluginFunc
	// PluginContext is what a plugin sees of the node.
	PluginContext = core.PluginContext
	// Event is one message on the node's queue.
	Event = core.Event
	// Config is the parsed XML data description.
	Config = meta.Config
	// BlockKey identifies one block (variable, source, iteration).
	BlockKey = meta.BlockKey
)

// ErrSkipped reports that data was dropped because the shared-memory
// segment was full — the paper's §V.C policy of losing data rather than
// blocking the simulation.
var ErrSkipped = core.ErrSkipped

// RegisterPlugin adds a plugin factory under a name usable from XML
// <plugin> elements.
func RegisterPlugin(name string, factory func(cfg map[string]string) (Plugin, error)) {
	core.RegisterPlugin(name, factory)
}

// ParseConfig reads a Damaris XML configuration.
func ParseConfig(r io.Reader) (*Config, error) { return meta.Parse(r) }

// ParseConfigString parses an XML configuration held in a string.
func ParseConfigString(s string) (*Config, error) { return meta.ParseString(s) }

// LoadConfig reads and parses an XML configuration file.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return meta.Parse(f)
}

// NewNode starts a node runtime for the given parsed configuration and
// number of simulation cores.
func NewNode(cfg *Config, clients int, opts Options) (*Node, error) {
	return core.NewNode(cfg, clients, opts)
}

// NewNodeFromXML parses the XML configuration and starts a node runtime.
func NewNodeFromXML(xml string, clients int, opts Options) (*Node, error) {
	cfg, err := meta.ParseString(xml)
	if err != nil {
		return nil, err
	}
	return core.NewNode(cfg, clients, opts)
}
