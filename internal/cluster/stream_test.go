package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/insitu"
	"repro/internal/storage"
)

// TestStreamingHookDeliversLiveBatches: every iteration a root stores
// is also published, decodable, and analyzable — the live coupling of
// the in-situ pipeline.
func TestStreamingHookDeliversLiveBatches(t *testing.T) {
	const nodes, clients, iters = 9, 2, 4
	stream := storage.NewStream()
	sub := stream.Subscribe(storage.SubOptions{Buffer: 2 * iters})
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{
		Meta:  testMeta(t),
		Hooks: []Hook{NewStreamingHook(stream)},
	})
	if err != nil {
		t.Fatal(err)
	}

	consumer := NewStreamConsumer(sub, insitu.Pipeline{Bins: 8})
	consumerDone := make(chan error, 1)
	go func() { consumerDone <- consumer.Run() }()

	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	if err := <-consumerDone; err != nil {
		t.Fatalf("consumer: %v", err)
	}

	if got := consumer.Frames(); got != iters {
		t.Fatalf("Frames = %d, want %d (one batch per iteration, one root)", got, iters)
	}
	results := consumer.Results()
	if len(results) != iters {
		t.Fatalf("Results = %d, want %d (one variable)", len(results), iters)
	}
	for i, r := range results {
		if r.Result.Iteration != i {
			t.Fatalf("result %d analyzed iteration %d (out of order)", i, r.Result.Iteration)
		}
		if r.Result.Field != "theta" {
			t.Fatalf("result %d field = %q", i, r.Result.Field)
		}
		// 9 nodes × 2 clients × 64 float64 each.
		if want := nodes * clients * 64; r.Result.Moments.N != want {
			t.Fatalf("result %d analyzed %d values, want %d (full subtree)", i, r.Result.Moments.N, want)
		}
		if i > 0 && r.Seq <= results[i-1].Seq {
			t.Fatalf("stream sequence not increasing: %d after %d", r.Seq, results[i-1].Seq)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("fast consumer dropped %d frames", sub.Dropped())
	}
	// Streaming rode along with — not instead of — the store writes.
	if st := c.Stats(); st.ObjectsWritten != iters {
		t.Fatalf("ObjectsWritten = %d, want %d", st.ObjectsWritten, iters)
	}
}

// TestStreamingHookNeverBlocksWritePath: a subscriber that never
// drains, under drop-oldest, must not stall the cluster — iterations
// complete, objects land, and the laggard's losses are its own.
func TestStreamingHookNeverBlocksWritePath(t *testing.T) {
	const nodes, clients, iters = 4, 1, 8
	stream := storage.NewStream()
	sub := stream.Subscribe(storage.SubOptions{Buffer: 1, Policy: storage.DropOldest})
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{
		Meta:  testMeta(t),
		Hooks: []Hook{NewStreamingHook(stream)},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runWorkload(t, c, iters)
		c.WaitIteration(iters - 1)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("write path stalled behind an undrained drop-oldest subscriber")
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	if st := c.Stats(); st.ObjectsWritten != iters {
		t.Fatalf("ObjectsWritten = %d, want %d", st.ObjectsWritten, iters)
	}
	if d := sub.Dropped(); d != iters-1 {
		t.Fatalf("Dropped = %d, want %d (buffer 1, nothing drained)", d, iters-1)
	}
}

// TestStreamSubscriberChurnDuringFailure is the churn race (under -race
// in `make test`): subscribers attach and cancel continuously while a
// multi-root cluster loses a root mid-run and re-routes its subtree.
// The run must complete and publication must keep flowing to whoever
// is subscribed at the moment a surviving root emits.
func TestStreamSubscriberChurnDuringFailure(t *testing.T) {
	const nodes, clients, iters, roots = 16, 1, 6, 4
	rootID := NewTree(nodes, 2, roots).Roots()[1]
	stream := storage.NewStream()
	store := storage.NewMemory(nil, 4, 1e9)
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    roots,
		Store:    store,
	}, RunSpec{
		Meta:     testMeta(t),
		Hooks:    []Hook{NewStreamingHook(stream)},
		Failures: NewFailureSchedule().Add(rootID, 2),
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 6; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			policies := storage.SlowPolicies()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sub := stream.Subscribe(storage.SubOptions{
					Buffer:       2,
					Policy:       policies[(g+i)%len(policies)],
					BlockTimeout: time.Millisecond,
				})
				for j := 0; j < 4; j++ {
					if _, ok, err := sub.TryRecv(); !ok && err != nil {
						break
					}
				}
				sub.Cancel()
			}
		}(g)
	}

	runWorkload(t, c, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	churn.Wait()
	stream.Close()

	st := c.Stats()
	if st.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want 1", st.NodesFailed)
	}
	if st.ObjectsWritten == 0 {
		t.Fatal("no objects written under churn")
	}
}

// TestStreamConsumerSlowConsumerError: a Block-policy consumer that
// outlives its publisher's patience sees ErrSlowConsumer from Run.
func TestStreamConsumerSlowConsumerError(t *testing.T) {
	stream := storage.NewStream()
	sub := stream.Subscribe(storage.SubOptions{
		Buffer:       1,
		Policy:       storage.Block,
		BlockTimeout: 5 * time.Millisecond,
	})
	b := &Batch{Iteration: 0, Blocks: []Block{{Node: 0, Source: 0, Variable: "v", Data: make([]byte, 16)}}}
	stream.Publish("a", EncodeBatch(b))
	stream.Publish("b", EncodeBatch(b)) // times out against the full queue, detaches
	consumer := NewStreamConsumer(sub, insitu.Pipeline{})
	if err := consumer.Run(); !errors.Is(err, storage.ErrSlowConsumer) {
		t.Fatalf("Run = %v, want ErrSlowConsumer", err)
	}
	if consumer.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1 (the backlog drained before the error)", consumer.Frames())
	}
}

// TestStreamConsumerDecodeError: junk on the stream is a consumer
// error, not a hang.
func TestStreamConsumerDecodeError(t *testing.T) {
	stream := storage.NewStream()
	sub := stream.Subscribe(storage.SubOptions{})
	stream.Publish("junk", []byte("not a batch"))
	consumer := NewStreamConsumer(sub, insitu.Pipeline{})
	if err := consumer.Run(); err == nil {
		t.Fatal("Run over junk = nil, want decode error")
	}
}
