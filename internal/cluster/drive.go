package cluster

import (
	"fmt"
	"sync"
)

// Workload is what Drive runs on a cluster: every client (node, source)
// writes one block of Variable per iteration in [From, To) and ends the
// iteration — the paper's client contract, fanned out over the machine.
type Workload struct {
	// Variable names the variable every client writes.
	Variable string
	// From and To bound the iterations driven: [From, To).
	From, To int
	// Payload returns the block client (node, source) writes at iteration
	// it. Every client goroutine calls it, concurrently.
	Payload func(node, source, it int) []byte
	// EachIteration, when non-nil, makes the run lockstep: all clients
	// write iteration it, the nodes end it one after the other in node
	// order, Drive waits until the roots stored it, then calls
	// EachIteration(it) before any client starts it+1. Scheduled deaths
	// then happen in the schedule's order, not the scheduler's — by
	// iteration, as the DES face's step barrier has them, and by node
	// within one — and a Reform issued here fences exactly at it+1. An
	// error it returns ends the run. Without it the clients run free,
	// each through its whole range.
	EachIteration func(it int) error
}

// Drive runs w on c and returns once iteration To-1 is stored (or every
// root is dead). The first client Write error is returned as soon as all
// clients have stopped, without waiting on an iteration the failed client
// never ended. Drive never calls Shutdown: the cluster stays usable for
// another range, and the caller shuts it down on every path — that is
// what releases the goroutines and shared memory of a failed run.
func Drive(c *Cluster, w Workload) error {
	lockstep := w.EachIteration != nil
	// run fans iterations [from, to) out over every client and returns
	// when each has written (and, running free, ended) them or one failed.
	run := func(from, to int) error {
		var (
			wg    sync.WaitGroup
			once  sync.Once
			first error
		)
		for n := 0; n < c.Nodes(); n++ {
			for s := 0; s < c.ClientsPerNode(); s++ {
				wg.Add(1)
				go func(n, s int) {
					defer wg.Done()
					cl := c.Client(n, s)
					for it := from; it < to; it++ {
						if err := cl.Write(w.Variable, it, w.Payload(n, s, it)); err != nil {
							once.Do(func() {
								first = fmt.Errorf("cluster: node %d source %d iteration %d: %w", n, s, it, err)
							})
							return
						}
						if !lockstep {
							cl.EndIteration(it)
						}
					}
				}(n, s)
			}
		}
		wg.Wait()
		return first
	}
	if w.To <= w.From {
		return nil
	}
	if !lockstep {
		if err := run(w.From, w.To); err != nil {
			return err
		}
		c.WaitIteration(w.To - 1)
		return nil
	}
	for it := w.From; it < w.To; it++ {
		if err := run(it, it+1); err != nil {
			return err
		}
		for n := 0; n < c.Nodes(); n++ {
			// The node's dedicated core finishes the iteration — forwards
			// it, or dies at it — before the next node ends its own.
			done := c.Node(n).Stats().IterationsCompleted
			for s := 0; s < c.ClientsPerNode(); s++ {
				c.Client(n, s).EndIteration(it)
			}
			c.Node(n).WaitIteration(int(done))
		}
		c.WaitIteration(it)
		if err := w.EachIteration(it); err != nil {
			return err
		}
	}
	return nil
}
