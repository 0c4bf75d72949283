package main

import (
	"strconv"
	"strings"
	"sync"
)

// objectID is what a root object's name says about it.
type objectID struct {
	tenant, root, iter int
	manifest           bool
}

// parseObjectName decodes "<job>-root<NNN>-it<NNNNNN>[-manifest]", the
// name a tree root stores an iteration under, with <job> one of this
// benchmark's jobName values. ok is false for any other name (chunk
// objects, for instance).
func parseObjectName(name string) (id objectID, ok bool) {
	rest, isManifest := strings.CutSuffix(name, "-manifest")
	i := strings.LastIndex(rest, "-it")
	j := strings.LastIndex(rest, "-root")
	if i < 0 || j < 0 || j > i {
		return id, false
	}
	job, ok := strings.CutPrefix(rest[:j], "bench-t")
	if !ok {
		return id, false
	}
	var err [3]error
	id.tenant, err[0] = strconv.Atoi(job)
	id.root, err[1] = strconv.Atoi(rest[j+len("-root") : i])
	id.iter, err[2] = strconv.Atoi(rest[i+len("-it"):])
	id.manifest = isManifest
	return id, err[0] == nil && err[1] == nil && err[2] == nil
}

// delivery is one stream message reaching the subscriber.
type delivery struct {
	seq uint64
	at  int64
}

// roundTrace is the traced round's bookkeeping beyond the raw spans:
// the events the gap spans (aggregate, encode, manifest, drain) are
// derived from, and per-call samples too numerous to keep as spans.
type roundTrace struct {
	rec *recorder

	mu        sync.Mutex
	puts      map[objectID]int32 // outer Put span of each root object
	hooks     map[objectID]int32 // hook span of each (tenant, root, iteration)
	hookStart map[objectID]int64
	published map[uint64]int64 // stream sequence number → publish time
	delivered []delivery

	// lastEnd[tenant][iter*nodes+node] is when the node's last client
	// finished EndIteration(iter). Each node belongs to one driver
	// goroutine, so the slots are written without locking.
	lastEnd [][]int64
	nodes   int

	// Per-call samples from the drivers, merged after the round.
	writeNs, endIterNs durSamples
}

func newRoundTrace(s spec) *roundTrace {
	tr := &roundTrace{
		rec:       newRecorder(),
		puts:      map[objectID]int32{},
		hooks:     map[objectID]int32{},
		hookStart: map[objectID]int64{},
		published: map[uint64]int64{},
		nodes:     s.nodes,
	}
	tr.lastEnd = make([][]int64, s.tenants)
	for t := range tr.lastEnd {
		tr.lastEnd[t] = make([]int64, s.iterations*s.nodes)
	}
	return tr
}

// beginPut opens the outer store span for an object.
func (tr *roundTrace) beginPut(name string) int32 {
	id, ok := parseObjectName(name)
	if !ok {
		return tr.rec.begin(spPut, -1, -1)
	}
	kind := spPut
	if id.manifest {
		kind = spManifestPut
	}
	idx := tr.rec.begin(kind, id.tenant, id.iter)
	tr.mu.Lock()
	tr.puts[id] = idx
	tr.mu.Unlock()
	return idx
}

// hookEnter and hookExit bracket a root's hooks for one iteration.
func (tr *roundTrace) hookEnter(id objectID) {
	now := tr.rec.now()
	tr.mu.Lock()
	tr.hookStart[id] = now
	tr.mu.Unlock()
}

// hookExit returns when the hooks were entered.
func (tr *roundTrace) hookExit(id objectID, bytes int64) (entered int64) {
	now := tr.rec.now()
	tr.mu.Lock()
	entered = tr.hookStart[id]
	tr.mu.Unlock()
	idx := tr.rec.add(spHooks, id.tenant, id.iter, entered, now, bytes)
	tr.mu.Lock()
	tr.hooks[id] = idx
	tr.mu.Unlock()
	return entered
}

// notePublished records when stream message seq was published.
func (tr *roundTrace) notePublished(seq uint64, at int64) {
	tr.mu.Lock()
	tr.published[seq] = at
	tr.mu.Unlock()
}

// noteDelivered records stream message seq reaching the subscriber.
func (tr *roundTrace) noteDelivered(seq uint64) {
	now := tr.rec.now()
	tr.mu.Lock()
	tr.delivered = append(tr.delivered, delivery{seq, now})
	tr.mu.Unlock()
}

// derive adds the gap spans between the recorded boundaries of every
// stored iteration: aggregate (a subtree's last EndIteration → its root's
// hook entry), encode (hook exit → data Put entry), manifest (data Put
// exit → manifest Put exit) and, per tenant iteration, drain (the
// tenant's last EndIteration → its last root's manifest stored; the
// slowest root sets it). subtreeOf maps a tenant's node to the ordinal
// of the tree it belongs to.
func (tr *roundTrace) derive(subtreeOf func(tenant, node int) int) {
	spans := tr.rec.snapshot()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type drainKey struct{ tenant, iter int }
	drainEnd := map[drainKey]int64{}
	for id, putIdx := range tr.puts {
		if id.manifest {
			continue
		}
		put := spans[putIdx]
		subtree := subtreeOf(id.tenant, id.root)
		// The subtree's last EndIteration of this iteration.
		var last int64
		for n := 0; n < tr.nodes; n++ {
			if subtreeOf(id.tenant, n) == subtree {
				last = max(last, tr.lastEnd[id.tenant][id.iter*tr.nodes+n])
			}
		}
		if h, ok := tr.hooks[id]; ok {
			hook := spans[h]
			tr.rec.add(spAggregate, id.tenant, id.iter, min(last, hook.start), hook.start, put.bytes)
			tr.rec.add(spEncode, id.tenant, id.iter, hook.end, max(hook.end, put.start), put.bytes)
		}
		mid := id
		mid.manifest = true
		if m, ok := tr.puts[mid]; ok {
			man := spans[m]
			tr.rec.add(spManifest, id.tenant, id.iter, put.end, max(put.end, man.end), man.bytes)
			k := drainKey{id.tenant, id.iter}
			drainEnd[k] = max(drainEnd[k], man.end)
		}
	}
	for k, end := range drainEnd {
		var last int64
		for n := 0; n < tr.nodes; n++ {
			last = max(last, tr.lastEnd[k.tenant][k.iter*tr.nodes+n])
		}
		tr.rec.add(spDrain, k.tenant, k.iter, min(last, end), end, 0)
	}
}

// deliveryLatencies pairs deliveries with their publish times.
func (tr *roundTrace) deliveryLatencies() durSamples {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out durSamples
	for _, d := range tr.delivered {
		if at, ok := tr.published[d.seq]; ok && d.at >= at {
			out = append(out, d.at-at)
		}
	}
	return out
}
