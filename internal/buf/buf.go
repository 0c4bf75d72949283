// Package buf provides pooled byte buffers for scratch space on hot
// paths: today the delta encoder's worst-case scratch
// (internal/compress), taken and returned within one Encode call.
//
// The cluster forwarding path does not use the pool: a batch's payloads
// alias the origin nodes' shared-memory segments and go back to them
// once the root's Put returns (see docs/ARCHITECTURE.md, "Data path &
// memory model"). Clone has no caller in the program; the benchmark's
// buf.clone_MBps kernel measures the pool with it.
//
// The pool recycles buffers through size-class sync.Pools, so a
// steady-state caller reaches an allocation fixed point. Ownership
// rule: a buffer obtained from Get has exactly one owner at a time,
// who must call Put exactly once when done with it. Returning a buffer
// twice, or using it after Put, is a data race the pool does not
// detect; the race test in buf_test.go exists to catch regressions in
// the callers.
package buf

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// minClassBits is the smallest pooled size class (1<<minClassBits
// bytes). Requests below it round up: tiny buffers are cheaper to
// over-allocate than to fragment into more classes.
const minClassBits = 8 // 256 B

// maxClassBits is the largest pooled size class (1<<maxClassBits
// bytes). Requests above it fall through to the plain allocator: they
// are rare (a whole-cluster merged batch), and parking many of them in
// a pool would pin more memory than the recycling saves.
const maxClassBits = 24 // 16 MiB

// classes is the number of size-class pools.
const classes = maxClassBits - minClassBits + 1

// pools holds one sync.Pool per power-of-two size class. Every pooled
// buffer has cap(b) == 1<<(minClassBits+i) exactly; Get re-slices to
// the requested length.
var pools [classes]sync.Pool

// Stats counters (atomic; see PoolStats).
var (
	statGets   atomic.Int64
	statPuts   atomic.Int64
	statMisses atomic.Int64 // Gets served by the allocator, not the pool
	statBig    atomic.Int64 // requests beyond the largest class
)

// classFor returns the size-class index for a request of n bytes, or
// -1 when n exceeds the largest pooled class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// Get returns a buffer of length n. The contents are unspecified — the
// caller must overwrite the bytes it will read (recycled buffers carry
// the previous owner's data). Get never returns nil, and n may be 0.
func Get(n int) []byte {
	statGets.Add(1)
	c := classFor(n)
	if c < 0 {
		statBig.Add(1)
		statMisses.Add(1)
		return make([]byte, n)
	}
	if v := pools[c].Get(); v != nil {
		w := v.(*poolBuf)
		b := w.b
		w.b = nil
		putPool.Put(w)
		return b[:n]
	}
	statMisses.Add(1)
	return make([]byte, 1<<(minClassBits+c))[:n]
}

// poolBuf wraps the slice so the pool stores a pointer (avoids an
// allocation per Put from the interface conversion of a slice header).
type poolBuf struct{ b []byte }

// putPool recycles poolBuf wrappers themselves.
var putPool = sync.Pool{New: func() any { return new(poolBuf) }}

// Put returns a buffer previously obtained from Get to its size-class
// pool. Buffers whose capacity is not a pooled class (including those
// larger than the largest class, and foreign slices) are dropped for
// the GC — Put never corrupts the pool with an odd-sized buffer that a
// later Get would hand out short. Put(nil) is a no-op.
func Put(b []byte) {
	if b == nil {
		return
	}
	statPuts.Add(1)
	c := cap(b)
	if c < 1<<minClassBits || c&(c-1) != 0 {
		return // not a pooled class: let the GC have it
	}
	idx := bits.Len(uint(c)) - 1 - minClassBits
	if idx < 0 || idx >= classes {
		return
	}
	w := putPool.Get().(*poolBuf)
	w.b = b[:cap(b)]
	pools[idx].Put(w)
}

// Clone returns a pooled copy of src: Get(len(src)) filled with src's
// bytes.
func Clone(src []byte) []byte {
	dst := Get(len(src))
	copy(dst, src)
	return dst
}

// PoolStats is a snapshot of the pool's global counters, for tests and
// diagnostics.
type PoolStats struct {
	// Gets and Puts count Get and Put calls.
	Gets, Puts int64
	// Misses counts Gets that fell through to the allocator (empty
	// pool, or request beyond the largest class).
	Misses int64
	// Oversize counts requests beyond the largest pooled class.
	Oversize int64
}

// Stats returns a snapshot of the global pool counters. The counters
// are monotonic; rates come from differencing two snapshots.
func Stats() PoolStats {
	return PoolStats{
		Gets:     statGets.Load(),
		Puts:     statPuts.Load(),
		Misses:   statMisses.Load(),
		Oversize: statBig.Load(),
	}
}
