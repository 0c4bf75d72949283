package cluster

import "fmt"

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
// with client writes, but not once Shutdown has begun; it composes with
// failure re-routing and streaming hooks (the stream's sequence numbers
// are cluster-wide and continue).
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

// Adapt is the runtime driver of an Adapter: called once iteration it
// is stored, it asks a for a recommendation against the current shape
// and re-forms the forest when one comes back.
func (c *Cluster) Adapt(a *Adapter, it int) error {
	c.mu.Lock()
	fanout, roots := c.forest.Shape()
	c.mu.Unlock()
	if f, r, ok := a.Recommend(it, fanout, roots); ok {
		if _, err := c.Reform(f, r); err != nil {
			return fmt.Errorf("cluster: adapt after iteration %d: %w", it, err)
		}
	}
	return nil
}
