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
	cfg = cfg.Canonical()
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

	roots, kids, size := restartTopology(plat.Nodes, cfg.Fanout, cfg.AggRoots, cfg.Failures)
	if len(roots) == 0 {
		// Every root died: nothing stored, nothing to restart from.
		return res, nil
	}
	stripes := cluster.StripeWidth(cfg.RootStripes, be.Targets(), len(roots))
	res.Roots = len(roots)
	res.Stripes = stripes
	bytes := func(n int) float64 { return nodeBytes * float64(size[n]) }
	// push[n] is node n's one step once it holds its subtree's state: a
	// child whose transfer just finished pushes on in an event of its
	// own, and the next one starts — the sender serializes them onto its
	// NIC. Leaves push nothing and share one step.
	push, sent := make([]func(), plat.Nodes), make([]int, plat.Nodes)
	leaf := func() {}
	for n := range push {
		push[n] = leaf
		if len(kids[n]) > 0 {
			push[n] = func() {
				if k := sent[n]; k > 0 {
					eng.Wait(0, push[kids[n][k-1]])
				}
				if k := sent[n]; k < len(kids[n]) {
					sent[n]++
					eng.Wait(bytes(kids[n][k])/plat.NICBandwidth+plat.NICLatency, push[n])
				}
			}
		}
	}
	read := be.ReadAsync
	for ordinal, id := range roots {
		eng.Wait(0, func() {
			be.Open(func() {
				stripeAcross(read, (ordinal*stripes)%be.Targets(), stripes, be.Targets(), bytes(id), func() {
					be.Close(func() {
						res.ReadTime = max(res.ReadTime, eng.Now())
						push[id]()
					})
				})
			})
		})
	}
	res.TotalTime = eng.Run()
	res.BytesRead = be.Accounting().BytesRead
	return res, nil
}

// restartTopology walks the forest a restart reads through once: every
// scheduled death has happened before it starts. It returns the live
// roots, ascending, and for every node its live children, ascending as
// Tree.Children lists them, and the size of its live subtree, which is
// Forest.Required(n, 0).Len(): a death before iteration 0 leaves no
// late drain to await. A dead node has neither.
func restartTopology(nodes, fanout, aggRoots int, failures *cluster.FailureSchedule) (roots []int, kids [][]int, size []int) {
	tree := cluster.NewTree(nodes, fanout, aggRoots)
	for _, n := range failures.Nodes() {
		tree.Fail(n)
	}
	// Every live node but a root is its live parent's child: count the
	// children, cut one array into the lists, fill them in id order.
	parent, size := make([]int, nodes), make([]int, nodes)
	for n := range parent {
		parent[n] = -1
		if p, ok := tree.Parent(n); ok && tree.Alive(n) {
			parent[n] = p
			size[p]++
		}
	}
	all, kids := make([]int, nodes), make([][]int, nodes)
	for n, c := range size {
		kids[n], all = all[:0:c], all[c:]
	}
	for n, p := range parent {
		if p >= 0 {
			kids[p] = append(kids[p], n)
		}
	}
	// Walk down from the roots (in parent's array), then sum the sizes
	// back up the walk.
	roots = tree.Roots()
	order := append(parent[:0], roots...)
	for i := 0; i < len(order); i++ {
		order = append(order, kids[order[i]]...)
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		size[n] = 1
		for _, c := range kids[n] {
			size[n] += size[c]
		}
	}
	return roots, kids, size
}
