package cluster

// Reform re-forms the aggregation forest mid-run with a new fanout and
// root count, returning the first iteration the new topology routes.
// Iterations below that fence keep flowing through their original
// epoch — parent edges, coverage requirements, root sets and broker
// windows included — so no in-flight mailbox entry is stranded or
// double-stored; acknowledged data is never lost to a re-formation:
// an aggregator's readiness check, its choice of destination and the
// fence move are one Forest.Route call in one lock hold (rule 2), so no
// Reform lands between "covered" and "route by that epoch". Nodes
// already killed stay dead in the new epoch, and their pre-death
// iterations stay awaited there (rule 1). Safe to call concurrently
// with client writes; it composes with failure re-routing and streaming
// hooks (the stream's sequence numbers are cluster-wide and continue).
func (c *Cluster) Reform(fanout, roots int) (fromIter int, err error) {
	c.mu.Lock()
	fromIter, err = c.forest.Reform(fanout, roots)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	c.stats.TreeReforms++
	// Wake every aggregator: an iteration already pending under the new
	// epoch may satisfy its (possibly smaller) new coverage requirement
	// immediately.
	for i := range c.aggs {
		c.postTo(i, aggMsg{poke: true})
	}
	c.mu.Unlock()
	c.cc.Logger.Printf("cluster: re-formed tree from iteration %d (fanout %d, %d roots)",
		fromIter, fanout, roots)
	return fromIter, nil
}

// Epochs reports how many topology epochs the run has accumulated
// (1 before any Reform).
func (c *Cluster) Epochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forest.Epochs()
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
