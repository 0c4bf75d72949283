package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/storage"
)

// RestoredIteration is one iteration's reconstructed state: the union
// of every root object stored for it.
type RestoredIteration struct {
	// Iteration is the simulation iteration number.
	Iteration int
	// Covers is the set of origin nodes whose contribution reached a
	// stored root object (a node can cover with zero blocks, e.g. when
	// its data was skipped but it still took part in the round).
	Covers map[int]bool
	// Blocks holds the decoded payload blocks in normalized (node,
	// source, variable) order.
	Blocks []Block
	// Partial is true when any root stored this iteration below its
	// full live-subtree coverage.
	Partial bool
	// PayloadMissing is true when at least one manifest's data object
	// could not be fetched or decoded — the iteration is known from its
	// manifests but not fully replayable.
	PayloadMissing bool
}

// Complete reports whether the iteration is fully recoverable for a
// cluster of n nodes: every node covered and every payload present.
func (ri *RestoredIteration) Complete(n int) bool {
	return !ri.PayloadMissing && len(ri.Covers) == n
}

// Restored is the result of reading a job's stored objects back: the
// read-side mirror of a Cluster run, reconstructed purely from
// manifests and batch objects.
type Restored struct {
	// Job is the prefix the restore scanned for ("" = everything).
	Job string
	// Manifests counts the manifest objects consumed.
	Manifests int
	// Iterations maps iteration number → reconstructed state.
	Iterations map[int]*RestoredIteration
	// Problems collects non-fatal per-object failures (undecodable
	// manifest, missing data object, manifest/batch mismatch). A
	// problem marks the affected iteration PayloadMissing instead of
	// aborting the restore: partial recovery beats none, the same trade
	// the write side makes under the §V.C skip policy.
	Problems []error
}

// Restore reads a job's manifests and batch objects back from a store
// and reconstructs per-iteration state. It is the checkpoint/restart
// entry point: after a run (including one with node failures), Restore
// reports exactly which iterations are recoverable and hands back the
// decoded blocks for replay. Only Get/List are required, so any
// storage.Backend works; the pure pfs cost model retains no bytes at
// all, so restoring from it yields an empty result with one problem
// per unreadable manifest.
func Restore(store storage.ObjectReader, job string) (*Restored, error) {
	prefix := job
	if job != "" {
		prefix = job + "-"
	}
	names, err := store.List(prefix)
	if err != nil {
		return nil, fmt.Errorf("cluster: restore: listing %q: %w", prefix, err)
	}
	r := &Restored{Job: job, Iterations: map[int]*RestoredIteration{}}
	for _, name := range names {
		if !IsManifestName(name) {
			continue
		}
		data, err := store.Get(name)
		if err != nil {
			r.Problems = append(r.Problems, fmt.Errorf("manifest %s: %w", name, err))
			continue
		}
		m, err := DecodeManifest(data)
		if err != nil {
			r.Problems = append(r.Problems, fmt.Errorf("manifest %s: %w", name, err))
			continue
		}
		if job != "" && m.Job != job {
			// The prefix scan can catch a job whose name extends the
			// requested one (e.g. "exp-v2" under "exp"); mixing two
			// runs' blocks would corrupt the restored state.
			continue
		}
		r.Manifests++
		ri := r.Iterations[m.Iteration]
		if ri == nil {
			ri = &RestoredIteration{Iteration: m.Iteration, Covers: map[int]bool{}}
			r.Iterations[m.Iteration] = ri
		}
		for _, n := range m.Covers {
			ri.Covers[n] = true
		}
		ri.Partial = ri.Partial || m.Partial
		b, err := fetchBatch(store, m)
		if err != nil {
			ri.PayloadMissing = true
			if !errors.Is(err, storage.ErrNoPayload) {
				r.Problems = append(r.Problems, err)
			}
			continue
		}
		ri.Blocks = append(ri.Blocks, b.Blocks...)
	}
	for _, ri := range r.Iterations {
		(&Batch{Iteration: ri.Iteration, Blocks: ri.Blocks}).normalize()
	}
	return r, nil
}

// fetchBatch reads and validates one manifest's data object.
func fetchBatch(store storage.ObjectReader, m *Manifest) (*Batch, error) {
	obj, err := store.Get(m.Object)
	if err != nil {
		return nil, fmt.Errorf("object %s: %w", m.Object, err)
	}
	b, err := DecodeBatch(obj)
	if err != nil {
		return nil, fmt.Errorf("object %s: %w", m.Object, err)
	}
	if b.Iteration != m.Iteration || len(b.Blocks) != len(m.Blocks) {
		return nil, fmt.Errorf("object %s: holds iteration %d with %d blocks, manifest says %d/%d",
			m.Object, b.Iteration, len(b.Blocks), m.Iteration, len(m.Blocks))
	}
	return b, nil
}

// IterationNumbers returns the restored iteration numbers ascending.
func (r *Restored) IterationNumbers() []int {
	its := make([]int, 0, len(r.Iterations))
	for it := range r.Iterations {
		its = append(its, it)
	}
	sort.Ints(its)
	return its
}

// TotalBlocks returns the number of payload blocks recovered across
// every iteration.
func (r *Restored) TotalBlocks() int {
	n := 0
	for _, ri := range r.Iterations {
		n += len(ri.Blocks)
	}
	return n
}

// Completeness returns iteration → fraction of a n-node cluster covered
// by the restored objects — the read-side mirror of Stats.Completeness,
// so a restore can be checked against the run that produced it.
func (r *Restored) Completeness(n int) map[int]float64 {
	out := make(map[int]float64, len(r.Iterations))
	for it, ri := range r.Iterations {
		out[it] = float64(len(ri.Covers)) / float64(n)
	}
	return out
}

// LatestComplete returns the highest iteration that is fully
// recoverable for an n-node cluster — the checkpoint a restart should
// resume from — and ok=false when no iteration qualifies.
func (r *Restored) LatestComplete(n int) (iteration int, ok bool) {
	best := -1
	for it, ri := range r.Iterations {
		if ri.Complete(n) && it > best {
			best = it
		}
	}
	return best, best >= 0
}

// NodeBlocks returns iteration it's blocks grouped by origin node — the
// per-node state a restarting simulation loads back.
func (r *Restored) NodeBlocks(it int) map[int][]Block {
	ri := r.Iterations[it]
	if ri == nil {
		return nil
	}
	out := map[int][]Block{}
	for _, blk := range ri.Blocks {
		out[blk.Node] = append(out[blk.Node], blk)
	}
	return out
}

// Replay drives fn once per restored iteration, ascending, with the
// merged batch — the read-side mirror of Hook.OnIteration, so the same
// plugin logic can run on a live cluster or on a stored run. Iterations
// with missing payloads are skipped. Replay stops at fn's first error.
func (r *Restored) Replay(fn func(it int, b *Batch) error) error {
	for _, it := range r.IterationNumbers() {
		ri := r.Iterations[it]
		if ri.PayloadMissing {
			continue
		}
		b := &Batch{Iteration: it, Blocks: ri.Blocks}
		if err := fn(it, b); err != nil {
			return fmt.Errorf("cluster: replay iteration %d: %w", it, err)
		}
	}
	return nil
}
