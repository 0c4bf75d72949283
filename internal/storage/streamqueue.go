package storage

// Offered is what StreamQueue.Offer decided about one item.
type Offered int

// The outcomes, and what the publisher does next.
const (
	Queued   Offered = iota // appended: wake the consumer
	Evicted                 // appended after dropping the oldest item (DropOldest): wake the consumer
	Refused                 // queue full, item dropped (Sample): move on
	MustWait                // queue full (Block): wait for a Take or a Close, then offer again
	Closed                  // closed: the item goes nowhere
)

// StreamQueue is the slow-consumer decision, written once and driven by
// both faces: a bounded FIFO that answers what happens to an item
// offered under a SlowPolicy. It has no lock and no way to wait — the
// runtime Subscription calls it under its mutex and waits on channels
// and a timer, the DES in-situ queue calls it from the simulation
// thread and waits on a des.Future.
type StreamQueue[T any] struct {
	items    []T
	capacity int
	policy   SlowPolicy
	closed   bool
	dropped  uint64
}

// NewStreamQueue returns an empty queue of the given capacity (>= 1)
// and policy.
func NewStreamQueue[T any](capacity int, policy SlowPolicy) *StreamQueue[T] {
	return &StreamQueue[T]{capacity: capacity, policy: policy}
}

// Offer decides one item. Only Queued and Evicted keep it.
func (q *StreamQueue[T]) Offer(v T) Offered {
	if q.closed {
		return Closed
	}
	out := Queued
	if len(q.items) >= q.capacity {
		switch q.policy {
		case Sample:
			// Drop the newcomer: what stays queued is an in-order
			// subsample the consumer will still see oldest-first.
			q.dropped++
			return Refused
		case Block:
			return MustWait
		default: // DropOldest
			q.items = q.items[1:]
			q.dropped++
			out = Evicted
		}
	}
	q.items = append(q.items, v)
	return out
}

// Take removes the oldest item; ok is false on an empty queue. The
// backlog stays takeable after Close.
func (q *StreamQueue[T]) Take() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v, q.items = q.items[0], q.items[1:]
	return v, true
}

// Close makes every later Offer answer Closed.
func (q *StreamQueue[T]) Close() { q.closed = true }

// IsClosed reports whether Close was called.
func (q *StreamQueue[T]) IsClosed() bool { return q.closed }

// Len returns the current depth.
func (q *StreamQueue[T]) Len() int { return len(q.items) }

// Dropped counts the items the policy discarded: evicted under
// DropOldest, refused under Sample.
func (q *StreamQueue[T]) Dropped() uint64 { return q.dropped }
