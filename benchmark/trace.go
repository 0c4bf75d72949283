package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// spanName identifies a span kind. Ids instead of strings keep the span
// slice pointer-free, so a round's worth of spans costs the garbage
// collector nothing to scan.
type spanName uint8

// Span kinds. The names (spanNames) follow "<layer>.<operation>" with
// the repo's package names as layers; "inner" is whatever base store
// sits under the reduce layers (sdf or memory).
const (
	spPhase       spanName = iota // one client's writes + EndIteration of one iteration
	spAggregate                   // derived: last EndIteration of a subtree → root hook entry
	spHooks                       // root hooks, first entry → last exit
	spEncode                      // derived: hook exit → data Put entry
	spPut                         // outer store Put/PutVec of a data object
	spManifest                    // derived: data Put exit → manifest Put exit
	spManifestPut                 // outer store Put of a manifest
	spDrain                       // derived: last EndIteration of the tenant → last manifest stored
	spInnerPut                    // base store Put under the reduce layers
	spAcquire                     // broker Acquire
	spRestore                     // cluster.Restore of one job
	spList                        // reader List under Restore
	spGet                         // reader Get under Restore
	spInnerGet                    // base store Get under the reduce layers
	spInnerList                   // base store List under the reduce layers
	spNameCount
)

var spanNames = [spNameCount]string{
	"driver.phase", "cluster.aggregate", "cluster.hooks", "cluster.encode",
	"storage.put", "cluster.manifest", "storage.put_manifest", "cluster.drain",
	"inner.put", "broker.acquire", "cluster.restore", "storage.list",
	"storage.get", "inner.get", "inner.list",
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch. parent is an index into the same slice (-1
// for a root); spans of one iteration share (tenant, iter), which
// children inherit from their parent when they do not know it.
type span struct {
	name   spanName
	tenant int8
	iter   int32
	parent int32
	start  int64
	end    int64
	bytes  int64
}

func (s span) dur() int64 { return s.end - s.start }

// openSpan is a span that may still get children, with the goroutine it
// was opened on.
type openSpan struct {
	idx int32
	gid uint64
}

// recorder keeps one round's spans in memory. It is written from the
// benchmark's own wrappers around the calls into each layer; nothing in
// the program under test knows about it.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []openSpan
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns nanoseconds since the recorder's epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// goid returns the calling goroutine's id, parsed from the first line of
// its stack dump ("goroutine 123 [running]:"). It costs a couple of
// microseconds, so the recorder only asks when parentage is ambiguous.
func goid() uint64 {
	var b [32]byte
	n := runtime.Stack(b[:], false)
	var id uint64
	for _, c := range b[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// parentLocked finds the span that caused a new one on the calling
// goroutine: the deepest open span of that goroutine, -1 when there is
// none. Wrapped calls are synchronous, so a wrapper below another always
// runs on the goroutine that opened the span above it; when every open
// span belongs to one goroutine the answer needs no id lookup. Callers
// hold r.mu.
func (r *recorder) parentLocked() int32 {
	if len(r.open) == 0 {
		return -1
	}
	first := r.open[0].gid
	if !slices.ContainsFunc(r.open[1:], func(o openSpan) bool { return o.gid != first }) {
		return r.open[len(r.open)-1].idx
	}
	return r.deepestLocked(goid())
}

// deepestLocked returns the deepest open span of goroutine gid, -1 when
// it has none. Callers hold r.mu.
func (r *recorder) deepestLocked(gid uint64) int32 {
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i].gid == gid {
			return r.open[i].idx
		}
	}
	return -1
}

// begin opens a span that may have children and returns its index.
func (r *recorder) begin(name spanName, tenant, iter int) int32 {
	gid := goid()
	r.mu.Lock()
	parent := r.deepestLocked(gid)
	idx := int32(len(r.spans))
	r.open = append(r.open, openSpan{idx: idx, gid: gid})
	// The clock is read last so the span does not time its own set-up.
	r.spans = append(r.spans, span{name: name, tenant: int8(tenant), iter: int32(iter),
		parent: parent, start: r.now()})
	r.mu.Unlock()
	return idx
}

// end closes a span opened by begin.
func (r *recorder) end(idx int32, bytes int64) {
	t := r.now()
	r.mu.Lock()
	r.spans[idx].end = t
	r.spans[idx].bytes = bytes
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i].idx == idx {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// leaf records a completed span that has no children of its own (a base
// store call); its parent is whatever span is open on this goroutine.
func (r *recorder) leaf(name spanName, start, end, bytes int64) {
	r.mu.Lock()
	parent := r.parentLocked()
	r.spans = append(r.spans, span{name: name, tenant: -1, iter: -1, parent: parent,
		start: start, end: end, bytes: bytes})
	r.mu.Unlock()
}

// add records a completed root span whose identity the caller knows
// (driver phases, derived gap spans).
func (r *recorder) add(name spanName, tenant, iter int, start, end, bytes int64) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, tenant: int8(tenant), iter: int32(iter),
		parent: -1, start: start, end: end, bytes: bytes})
	return int32(len(r.spans) - 1)
}

// snapshot returns the recorded spans with (tenant, iter) inherited
// down the tree. The recorder must be quiescent.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out { // parents always precede children
		if p := out[i].parent; p >= 0 && out[i].iter < 0 {
			out[i].iter = out[p].iter
			out[i].tenant = out[p].tenant
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover. Overlapping children (two
// goroutines working for one parent) are merged before subtracting, and
// children are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, curStart, curEnd := int64(0), int64(0), int64(-1)
		for _, k := range kids {
			ks, ke := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if ke <= ks {
				continue
			}
			if curEnd < curStart || ks > curEnd { // first interval, or a gap
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] -= covered
	}
	return self
}

// spanRecord is one line of the span file.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Tenant  int    `json:"tenant"`
	Iter    int    `json:"iter"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// writeSpanFile writes spans as JSON lines, ordered by (tenant,
// iteration, start) so one iteration's span tree reads contiguously.
func writeSpanFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := selfTimes(spans)
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.tenant != y.tenant {
			return x.tenant < y.tenant
		}
		if x.iter != y.iter {
			return x.iter < y.iter
		}
		return x.start < y.start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, i := range order {
		s := spans[i]
		if err := enc.Encode(spanRecord{ID: i, Parent: int(s.parent), Name: spanNames[s.name],
			Tenant: int(s.tenant), Iter: int(s.iter), StartNs: s.start, EndNs: s.end,
			SelfNs: self[i], Bytes: s.bytes}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
