package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrStreamClosed is returned by Subscription.Recv after the stream is
// closed (or the subscription cancelled) and the queued backlog has
// been drained. Callers should test with errors.Is.
var ErrStreamClosed = errors.New("storage: stream closed")

// ErrSlowConsumer is returned by Subscription.Recv after a Block-policy
// subscriber held a publisher past its BlockTimeout: the stream detaches
// the subscriber rather than stall the write path forever, and the
// subscriber learns why on its next receive (after draining whatever
// was already queued). Callers should test with errors.Is.
var ErrSlowConsumer = errors.New("storage: subscriber too slow, detached")

// SlowPolicy names what a publisher does when a subscriber's bounded
// queue is full. The choice trades the publisher's latency against the
// subscriber's completeness — see docs/STREAMING.md.
type SlowPolicy string

const (
	// DropOldest evicts the oldest queued message to make room for the
	// new one. The publisher never blocks and the subscriber always sees
	// the most recent Buffer messages — staleness is bounded, coverage
	// is not. This is the default, and the only policy safe on the
	// cluster write path without a timeout.
	DropOldest SlowPolicy = "drop-oldest"
	// Block makes the publisher wait for queue space up to
	// SubOptions.BlockTimeout — real backpressure, full coverage — and
	// detach the subscriber with ErrSlowConsumer when the wait runs out.
	Block SlowPolicy = "block"
	// Sample drops the incoming message when the queue is full: the
	// publisher never blocks and the subscriber sees an in-order
	// subsample of the stream (older queued messages are never
	// displaced, so what it sees is a prefix-preserving subsequence).
	Sample SlowPolicy = "sample"
)

// SlowPolicies lists the slow-consumer policies.
func SlowPolicies() []SlowPolicy { return []SlowPolicy{DropOldest, Block, Sample} }

// ValidateSlowPolicy checks a user-supplied policy name ("" means
// DropOldest).
func ValidateSlowPolicy(p string) error {
	if p == "" || slices.Contains(SlowPolicies(), SlowPolicy(p)) {
		return nil
	}
	return fmt.Errorf("storage: unknown slow-consumer policy %q (have %v)", p, SlowPolicies())
}

// StreamMsg is one published object: the name it was (or is about to
// be) stored under, a stream-wide sequence number, and the payload.
// Data is shared read-only among all subscribers — receivers must not
// modify it.
type StreamMsg struct {
	// Name is the object name, e.g. "job-root000-it000042".
	Name string
	// Seq is the stream-wide publish sequence number (starting at 1);
	// gaps in the sequence a subscriber observes are messages its
	// policy dropped.
	Seq uint64
	// Data is the payload as the publisher saw it — decoded bytes, not
	// the framed/chunked form a wrapped backend stores.
	Data []byte
}

// DefaultStreamBuffer is the per-subscriber queue capacity when
// SubOptions.Buffer is unset. It bounds a subscriber's staleness: under
// DropOldest a consumer is never more than Buffer messages behind the
// publisher.
const DefaultStreamBuffer = 8

// DefaultBlockTimeout is the publisher's patience with a Block-policy
// subscriber when SubOptions.BlockTimeout is unset.
const DefaultBlockTimeout = time.Second

// SubOptions configure one subscription.
type SubOptions struct {
	// Buffer is the bounded queue capacity in messages (default
	// DefaultStreamBuffer).
	Buffer int
	// Policy is what publishers do when the queue is full (default
	// DropOldest).
	Policy SlowPolicy
	// BlockTimeout bounds how long a Block-policy publisher waits for
	// queue space before detaching this subscriber (default
	// DefaultBlockTimeout). Ignored by the other policies.
	BlockTimeout time.Duration
}

func (o SubOptions) withDefaults() SubOptions {
	if o.Buffer <= 0 {
		o.Buffer = DefaultStreamBuffer
	}
	if o.Policy == "" {
		o.Policy = DropOldest
	}
	if o.BlockTimeout <= 0 {
		o.BlockTimeout = DefaultBlockTimeout
	}
	return o
}

// Stream is a fan-out hub from publishers (tree roots, through
// cluster.NewStreamingHook) to in-situ subscribers. Each subscriber owns a bounded
// FIFO queue; when it falls behind, its SlowPolicy — not the other
// subscribers' — decides what gives. Every subscriber sees Seq strictly
// increasing, whichever publishers the messages came from; gaps are
// messages its policy dropped. All methods are safe for concurrent use.
type Stream struct {
	// pubMu serialises publishers: a message gets its Seq and reaches
	// every queue in one hold, so no later Seq is enqueued ahead of it.
	// A Block-policy subscriber thus holds back every publisher.
	pubMu sync.Mutex

	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	seq    uint64
	closed bool
}

// NewStream returns an empty hub.
func NewStream() *Stream {
	return &Stream{subs: map[*Subscription]struct{}{}}
}

// Subscribe attaches a new subscriber. On a closed stream the
// subscription is returned already closed (Recv fails fast with
// ErrStreamClosed).
func (s *Stream) Subscribe(opts SubOptions) *Subscription {
	opts = opts.withDefaults()
	sub := &Subscription{
		stream:   s,
		patience: opts.BlockTimeout,
		q:        NewStreamQueue[StreamMsg](opts.Buffer, opts.Policy),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		sub.q.Close()
	} else {
		s.subs[sub] = struct{}{}
	}
	s.mu.Unlock()
	return sub
}

// HasSubscribers reports whether anyone is listening — publishers use
// it to skip payload copies when nobody would see them.
func (s *Stream) HasSubscribers() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs) > 0
}

// Published returns the number of messages published so far.
func (s *Stream) Published() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Publish hands one payload to every current subscriber. The stream
// takes ownership of data: it is shared read-only among subscribers,
// so the caller must not reuse or recycle the buffer afterwards (pass
// a copy when the source buffer is pooled). Publish blocks only for
// Block-policy subscribers with full queues, and each of those at most
// its own BlockTimeout — after which the laggard is detached with
// ErrSlowConsumer and the publisher moves on. Publishing on a closed
// stream is a no-op.
func (s *Stream) Publish(name string, data []byte) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	msg := StreamMsg{Name: name, Seq: s.seq, Data: data}
	targets := make([]*Subscription, 0, len(s.subs))
	for sub := range s.subs {
		targets = append(targets, sub)
	}
	s.mu.Unlock()
	for _, sub := range targets {
		sub.offer(msg)
	}
}

// Close shuts the hub down: every subscriber drains its backlog and
// then sees ErrStreamClosed; later Publish calls are dropped. Close is
// idempotent.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := make([]*Subscription, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subs = map[*Subscription]struct{}{}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.close(nil)
	}
}

// detach removes a subscription from the fan-out set (it stops
// receiving new messages; queued ones remain readable).
func (s *Stream) detach(sub *Subscription) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}

// Subscription is one subscriber's bounded FIFO view of a Stream.
// Recv is single-consumer; the counters and Cancel are safe from any
// goroutine.
type Subscription struct {
	stream   *Stream
	patience time.Duration // a Block publisher's wait before it detaches the subscriber

	mu       sync.Mutex
	q        *StreamQueue[StreamMsg] // closed: no more messages will be queued
	failed   error                   // terminal error after the backlog drains
	notEmpty chan struct{}           // 1-buffered wakeup for Recv
	notFull  chan struct{}           // 1-buffered wakeup for Block publishers
}

// signal performs a non-blocking send on a 1-buffered wakeup channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// offer enqueues one message under this subscription's slow-consumer
// policy: the queue decides, this only waits — under Block, for the
// consumer to make room, up to the subscriber's timeout, then detaches
// it rather than hold the write path hostage. Safe for concurrent
// publishers.
func (c *Subscription) offer(msg StreamMsg) {
	var timer *time.Timer
	for {
		c.mu.Lock()
		out := c.q.Offer(msg)
		c.mu.Unlock()
		if out != MustWait {
			if timer != nil {
				timer.Stop()
			}
			if out == Queued || out == Evicted {
				signal(c.notEmpty)
			}
			return
		}
		if timer == nil {
			timer = time.NewTimer(c.patience)
		}
		select {
		case <-c.notFull:
		case <-timer.C:
			c.close(ErrSlowConsumer)
			return
		}
	}
}

// Recv returns the next message, blocking until one arrives or the
// subscription reaches a terminal state. The queued backlog is always
// drained first; then Recv reports ErrStreamClosed (stream closed or
// subscription cancelled) or ErrSlowConsumer (detached by a Block
// timeout). Recv must not be called concurrently with itself.
func (c *Subscription) Recv() (StreamMsg, error) {
	for {
		msg, ok, err := c.TryRecv()
		if ok || err != nil {
			return msg, err
		}
		<-c.notEmpty
	}
}

// TryRecv is Recv without blocking: ok=false means the queue is empty
// right now (err is then nil on a live subscription, terminal
// otherwise).
func (c *Subscription) TryRecv() (msg StreamMsg, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if msg, ok = c.q.Take(); ok {
		signal(c.notFull)
		return msg, true, nil
	}
	if c.q.IsClosed() {
		if err = c.failed; err == nil {
			err = ErrStreamClosed
		}
	}
	return StreamMsg{}, false, err
}

// Cancel detaches the subscription. Pending messages remain readable;
// after the drain Recv returns ErrStreamClosed. Safe to call more than
// once and concurrently with Recv.
func (c *Subscription) Cancel() { c.close(nil) }

// Dropped returns how many messages this subscription's policy has
// discarded so far (evicted under DropOldest, refused under Sample).
func (c *Subscription) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Dropped()
}

// Pending returns the current queue depth.
func (c *Subscription) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Len()
}

// close marks the subscription terminal with cause (nil = plain close)
// and wakes both sides. First cause wins.
func (c *Subscription) close(cause error) {
	c.stream.detach(c)
	c.mu.Lock()
	if !c.q.IsClosed() {
		c.q.Close()
		c.failed = cause
	}
	c.mu.Unlock()
	signal(c.notEmpty)
	signal(c.notFull)
}
