package cluster

// adaptCooldown is the minimum iteration spacing between adaptation
// decisions that were not forced by a disturbance.
const adaptCooldown = 2

// Adapter is the tree-adaptation controller, written once and driven by
// both faces like Forest and Admission: the DES model feeds it the
// transfers it times in virtual time and applies its answer to its own
// Forest; a runtime driver feeds it what it observes and applies the
// answer with Cluster.Adapt. It has no goroutine, lock or clock —
// bandwidth observations and disturbances in, at most one (fanout,
// roots) recommendation per iteration out. It steers by two EWMAs (0.7
// history, 0.3 new sample) of the per-hop NIC and per-stream PFS
// bandwidths, and re-evaluates right after a disturbance (a platform
// shift, a node death or rejoin), otherwise at most every adaptCooldown
// iterations.
type Adapter struct {
	nodes, targets, iterations int
	nodeBytesAt                func(it int) float64
	nic, pfs                   float64
	dirty                      bool
	last                       int
}

// NewAdapter returns the controller for a job of iterations iterations
// on nodes nodes writing to targets storage targets; nodeBytesAt is one
// node's output volume at an iteration, nicBW and streamBW are the
// nominal bandwidths the EWMAs start from.
func NewAdapter(nodes, targets, iterations int, nicBW, streamBW float64, nodeBytesAt func(it int) float64) *Adapter {
	return &Adapter{nodes: nodes, targets: targets, iterations: iterations,
		nodeBytesAt: nodeBytesAt, nic: nicBW, pfs: streamBW, last: -adaptCooldown}
}

// ObserveNIC folds one measured hop transfer (bytes/s) into the NIC EWMA.
func (a *Adapter) ObserveNIC(bw float64) { a.nic = 0.7*a.nic + 0.3*bw }

// ObservePFS folds one measured root stripe stream (bytes/s) into the
// PFS EWMA.
func (a *Adapter) ObservePFS(bw float64) { a.pfs = 0.7*a.pfs + 0.3*bw }

// Disturb records that the machine changed under the forest: the next
// Recommend evaluates whatever the cooldown says.
func (a *Adapter) Disturb() { a.dirty = true }

// Recommend is asked once iteration it's root write completed — exactly
// when a fresh PFS observation exists — with the forest's current
// shape. ok means the observed bandwidths call for a different shape
// from iteration it+1's volume on; the last iteration gets none.
func (a *Adapter) Recommend(it, fanout, roots int) (f, r int, ok bool) {
	if !a.dirty && it < a.last+adaptCooldown {
		return 0, 0, false
	}
	a.dirty = false
	a.last = it
	if it+1 >= a.iterations {
		return 0, 0, false
	}
	f, r = RecommendTopology(a.nodes, a.nodeBytesAt(it+1), a.nic, a.pfs, a.targets)
	return f, r, f != fanout || r != roots
}

// RecommendTopology picks an aggregation forest shape — fanout and
// root count — from observed bandwidths: nodeBytes is one node's
// output per iteration, nicBW the observed per-hop interconnect
// bandwidth, streamBW the observed bandwidth of one root's PFS stripe
// stream, and targets the number of storage targets (OSTs). It
// balances the two costs the dedicated-core design trades between:
//
//   - store-and-forward volume up the tree — a slow NIC wants a
//     flatter forest (more roots, smaller subtrees);
//   - stream concurrency on the file system — a slow or contended PFS
//     wants fewer, larger sequential streams per the paper's §IV.
//
// The model mirrors the DES cost faces (serialization per hop, stripe
// windows per root, sequential-efficiency loss once streams share a
// target) closely enough to rank candidates; the experiment E11 checks
// the ranking against the simulated outcome.
func RecommendTopology(nodes int, nodeBytes, nicBW, streamBW float64, targets int) (fanout, roots int) {
	if nodes <= 1 {
		return 2, 1
	}
	if nicBW <= 0 {
		nicBW = 1
	}
	if streamBW <= 0 {
		streamBW = 1
	}
	if targets < 1 {
		targets = 1
	}
	best := -1.0
	fanout, roots = 2, 1
	for r := 1; r <= nodes; r *= 2 {
		sub := (nodes + r - 1) / r
		stripes := StripeWidth(0, targets, r)
		// Per-root write time: the subtree's bytes over the root's
		// stripe window, derated once the forest's streams outnumber
		// the targets (sequential efficiency loss per shared OST).
		streams := r * stripes
		eff := 1.0
		if streams > targets {
			perOST := float64(streams) / float64(targets)
			eff = 1 / perOST / (1 + 0.3*(perOST-1))
		}
		pfsT := float64(sub) * nodeBytes / (float64(stripes) * streamBW * eff)
		for _, f := range []int{2, 3, 4, 8} {
			if f >= sub && f > 2 {
				break
			}
			total := aggChainTime(sub, f, nodeBytes, nicBW) + pfsT
			if best < 0 || total < best {
				best = total
				fanout, roots = f, r
			}
		}
	}
	return fanout, roots
}

// aggChainTime is the critical-path store-and-forward time for one
// subtree of s nodes with the given fanout: each level serializes its
// subtree's bytes over one NIC before the level above can forward.
func aggChainTime(s, fanout int, nodeBytes, nicBW float64) float64 {
	t := 0.0
	for s > 1 {
		child := (s - 1 + fanout - 1) / fanout
		t += float64(child) * nodeBytes / nicBW
		s = child
	}
	return t
}
