package iostrat

import (
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/storage"
)

// RestartResult reports what the restart-read model measured.
type RestartResult struct {
	// ReadTime is the virtual time until every root finished reading
	// its checkpoint object back from the backend.
	ReadTime float64
	// TotalTime additionally covers scattering the state back down the
	// aggregation tree to every live node over the NIC.
	TotalTime float64
	// BytesRead is the payload volume read from the backend.
	BytesRead float64
	// Roots and Stripes echo the topology the model used.
	Roots   int
	Stripes int
}

// RestartRead is the DES mirror of the object read path: it prices
// restarting one checkpoint (a single iteration's stored objects) on
// the configured cost stack, the inverse of the tree-mode write path. Each
// aggregation-tree root reads its subtree's object back as striped
// big-sequential streams — reads share the same per-target queues as
// writes — then scatters the blocks down the tree over the NIC, each
// sender serializing its children's transfers. With Fanout < 2 every
// node reads its own per-node file instead (the paper's baseline
// layout). A failure schedule is applied up front: a restart happens
// after the deaths, so dead nodes neither hold data to read nor
// receive any.
func RestartRead(cfg Config) (RestartResult, error) {
	cfg = cfg.withDefaults()
	eng := des.NewEngine()
	root := rng.New(cfg.Seed, 17)
	be, _, err := cfg.newCostModel(eng, root.Named("pfs"))
	if err != nil {
		return RestartResult{}, err
	}
	plat := cfg.Platform
	nodeBytes := cfg.Workload.NodeBytes(plat.CoresPerNode)
	res := RestartResult{}
	be.BeginPhase()

	if cfg.Fanout < 2 {
		// Baseline: one file per node, read back in parallel.
		res.Roots = plat.Nodes
		res.Stripes = 1
		for node := range plat.Nodes {
			eng.Wait(0, func() {
				be.Open(func() {
					be.Read(node%be.Targets(), nodeBytes, storage.BigSequential, func() { be.Close(func() {}) })
				})
			})
		}
		res.ReadTime = eng.Run()
		res.TotalTime = res.ReadTime
		res.BytesRead = be.Accounting().BytesRead
		return res, nil
	}

	// A restart happens after the deaths: every scheduled node is dead
	// before iteration 0, so the forest awaits none of them.
	forest := cluster.NewForest(plat.Nodes, cfg.Fanout, cfg.AggRoots)
	for _, n := range cfg.Failures.Nodes() {
		forest.Fail(n, 0)
	}
	tree := forest.Tree()
	roots := tree.Roots()
	numRoots := len(roots)
	if numRoots == 0 {
		// Every root died: nothing stored, nothing to restart from.
		return res, nil
	}
	stripes := cluster.StripeWidth(cfg.RootStripes, be.Targets(), numRoots)
	res.Roots = numRoots
	res.Stripes = stripes

	subtreeBytes := func(n int) float64 {
		return nodeBytes * float64(forest.Required(n, 0).Len())
	}
	// scatter pushes kids their subtree state: the sender serializes the
	// transfers onto its NIC, each child then forwards its own subtree
	// concurrently.
	var scatter func(kids []int)
	scatter = func(kids []int) {
		if len(kids) == 0 {
			return
		}
		eng.Wait(subtreeBytes(kids[0])/plat.NICBandwidth+plat.NICLatency, func() {
			eng.Wait(0, func() { scatter(tree.Children(kids[0])) })
			scatter(kids[1:])
		})
	}
	for ordinal, rootID := range roots {
		eng.Wait(0, func() {
			be.Open(func() {
				stripeAcross(be.ReadAsync, (ordinal*stripes)%be.Targets(), stripes, be.Targets(),
					subtreeBytes(rootID), func() {
						be.Close(func() {
							if eng.Now() > res.ReadTime {
								res.ReadTime = eng.Now()
							}
							scatter(tree.Children(rootID))
						})
					})
			})
		})
	}
	res.TotalTime = eng.Run()
	res.BytesRead = be.Accounting().BytesRead
	return res, nil
}
