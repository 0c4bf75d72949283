package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/compress"
	"repro/internal/insitu"
	"repro/internal/storage"
)

// NewStreamingHook adapts a storage.Stream into a cluster Hook: every
// merged iteration batch a tree root completes is published live —
// before (and regardless of) the root's store write, so in-situ
// consumers see an iteration while it is still being written to the
// backend. The batch is re-encoded into a fresh buffer (hooks may not
// keep payloads: they alias shared memory), so publishing costs one
// payload copy per root per iteration — and only while someone is
// subscribed. Slow consumers are the subscribers' problem, per their
// own SlowPolicy: under the default drop-oldest the hook never blocks
// the write path.
func NewStreamingHook(s *storage.Stream) Hook {
	return HookFunc{
		HookName: "streaming",
		Fn: func(it int, b *Batch) error {
			if !s.HasSubscribers() {
				return nil
			}
			name := fmt.Sprintf("stream-it%06d", it)
			s.Publish(name, EncodeBatch(b))
			return nil
		},
	}
}

// ConsumerResult is one analyzed variable of one streamed batch.
type ConsumerResult struct {
	// Seq is the stream sequence number of the batch the result came
	// from (gaps = batches this consumer's policy dropped).
	Seq uint64
	// Result is the insitu kernel output; Result.Iteration and
	// Result.Field identify what was analyzed.
	Result insitu.Result
}

// StreamConsumer drains a subscription and runs an insitu.Pipeline on
// every batch it receives — the live (Damaris-style asynchronous)
// coupling of the paper's §V visualization story. Each batch's blocks
// are grouped by variable, concatenated in the batch's normalized
// block order and reinterpreted as a flat float64 field, so the
// analysis sees each variable's full subtree footprint per iteration.
type StreamConsumer struct {
	sub  *storage.Subscription
	pipe insitu.Pipeline

	mu      sync.Mutex
	results []ConsumerResult
	frames  int
}

// NewStreamConsumer builds a consumer over an existing subscription.
func NewStreamConsumer(sub *storage.Subscription, pipe insitu.Pipeline) *StreamConsumer {
	return &StreamConsumer{sub: sub, pipe: pipe}
}

// ConsumeStream is the one receive-and-decode loop of a stream
// subscriber: it hands every batch sub receives to onBatch until the
// subscription reaches a terminal state. A closed stream (or a
// cancelled subscription) is the clean end and returns nil, once the
// queued backlog is drained; everything else is the consumer's failure
// and is returned — storage.ErrSlowConsumer when a Block-policy
// subscriber was detached for holding a publisher past its timeout (it
// missed frames; a caller that provokes the detach on purpose tests for
// it with errors.Is), a payload that does not decode, or onBatch's own
// error. The batch's blocks alias msg.Data, which every subscriber
// shares: onBatch must treat the payloads as read-only.
func ConsumeStream(sub *storage.Subscription, onBatch func(msg storage.StreamMsg, b *Batch) error) error {
	for {
		msg, err := sub.Recv()
		if errors.Is(err, storage.ErrStreamClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		b, err := DecodeBatch(msg.Data)
		if err == nil {
			err = onBatch(msg, b)
		}
		if err != nil {
			return fmt.Errorf("cluster: stream consumer on %s: %w", msg.Name, err)
		}
	}
}

// Run receives and analyzes until the stream reaches a terminal state,
// as ConsumeStream defines it. Callers typically run it on its own
// goroutine, concurrent with the cluster writing.
func (sc *StreamConsumer) Run() error { return ConsumeStream(sc.sub, sc.analyze) }

// analyze runs the pipeline per variable of one streamed batch.
func (sc *StreamConsumer) analyze(msg storage.StreamMsg, b *Batch) error {
	// Blocks arrive normalized (node, source, variable); group payloads
	// per variable preserving that order so reruns are deterministic.
	order := make([]string, 0, 4)
	byVar := map[string][]byte{}
	for _, blk := range b.Blocks {
		if _, seen := byVar[blk.Variable]; !seen {
			order = append(order, blk.Variable)
		}
		byVar[blk.Variable] = append(byVar[blk.Variable], blk.Data...)
	}
	for _, v := range order {
		vals := compress.BytesFloat64(byVar[v])
		if len(vals) == 0 {
			continue
		}
		f := insitu.Field{Name: v, NZ: 1, NY: 1, NX: len(vals), Data: vals}
		res, err := sc.pipe.Analyze(f, b.Iteration)
		if err != nil {
			return err
		}
		sc.mu.Lock()
		sc.results = append(sc.results, ConsumerResult{Seq: msg.Seq, Result: res})
		sc.mu.Unlock()
	}
	sc.mu.Lock()
	sc.frames++
	sc.mu.Unlock()
	return nil
}

// Results returns a snapshot of everything analyzed so far.
func (sc *StreamConsumer) Results() []ConsumerResult {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]ConsumerResult, len(sc.results))
	copy(out, sc.results)
	return out
}

// Frames returns how many batches were analyzed so far.
func (sc *StreamConsumer) Frames() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.frames
}
