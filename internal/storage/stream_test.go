package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestValidateSlowPolicy(t *testing.T) {
	for _, p := range append(SlowPolicies(), "") {
		if err := ValidateSlowPolicy(string(p)); err != nil {
			t.Errorf("ValidateSlowPolicy(%q) = %v", p, err)
		}
	}
	if err := ValidateSlowPolicy("bogus"); err == nil {
		t.Errorf("ValidateSlowPolicy(bogus) = nil, want error")
	}
}

// TestDropOldestNeverStallsPublisher is the drop-oldest property: with
// no consumer draining at all, a publisher pushes far more messages
// than the buffer holds without ever blocking, and the subscriber is
// left holding exactly the newest Buffer messages in order.
func TestDropOldestNeverStallsPublisher(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: 4, Policy: DropOldest})
	const n = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Publish(fmt.Sprintf("obj-%d", i), []byte{byte(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher stalled under drop-oldest")
	}
	if got := sub.Dropped(); got != n-4 {
		t.Fatalf("Dropped = %d, want %d", got, n-4)
	}
	for i := 0; i < 4; i++ {
		msg, err := sub.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := uint64(n - 4 + i + 1); msg.Seq != want {
			t.Fatalf("Recv %d: Seq = %d, want %d (newest window)", i, msg.Seq, want)
		}
	}
	if p := sub.Pending(); p != 0 {
		t.Fatalf("Pending = %d after drain, want 0", p)
	}
}

// TestBlockBackpressure is the block property: a publisher into a full
// queue does not complete until the consumer makes room (real
// backpressure), and completes promptly once it does — the wait is
// bounded by the consumer, not lost.
func TestBlockBackpressure(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: 2, Policy: Block, BlockTimeout: time.Minute})
	s.Publish("a", nil)
	s.Publish("b", nil)
	third := make(chan struct{})
	go func() {
		s.Publish("c", nil) // queue full: must wait for a Recv
		close(third)
	}()
	select {
	case <-third:
		t.Fatal("publish into a full block-policy queue returned without backpressure")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := sub.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	select {
	case <-third:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked publish did not complete after the consumer made room")
	}
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d under block policy, want 0", got)
	}
}

// TestBlockTimeoutDetaches: a Block subscriber that holds a publisher
// past its timeout is detached; the backlog stays readable and then
// Recv reports ErrSlowConsumer. Later publishes skip the detached
// subscriber entirely.
func TestBlockTimeoutDetaches(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: 1, Policy: Block, BlockTimeout: 20 * time.Millisecond})
	s.Publish("a", nil)
	start := time.Now()
	s.Publish("b", nil) // times out and detaches
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("publish held for %v, want ~BlockTimeout", el)
	}
	s.Publish("c", nil) // detached: must not block or enqueue
	msg, err := sub.Recv()
	if err != nil || msg.Name != "a" {
		t.Fatalf("Recv backlog = %q, %v; want a, nil", msg.Name, err)
	}
	if _, err := sub.Recv(); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("Recv after detach = %v, want ErrSlowConsumer", err)
	}
}

// TestSamplePreservesOrdering is the sample property: whatever subset a
// slow consumer sees arrives in publish order (strictly increasing
// sequence numbers), the publisher never blocks, and accounting covers
// every message either delivered or dropped.
func TestSamplePreservesOrdering(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: 3, Policy: Sample})
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Publish(fmt.Sprintf("obj-%d", i), nil)
		}
		s.Close()
	}()
	var got []uint64
	for {
		msg, err := sub.Recv()
		if err != nil {
			if !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("Recv: %v", err)
			}
			break
		}
		got = append(got, msg.Seq)
		if len(got)%2 == 0 {
			time.Sleep(50 * time.Microsecond) // fall behind on purpose
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher stalled under sample policy")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sampled sequence out of order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if delivered := uint64(len(got)); delivered+sub.Dropped() != n {
		t.Fatalf("delivered %d + dropped %d != published %d", delivered, sub.Dropped(), n)
	}
}

func TestStreamCloseDrainsBacklog(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: 8})
	s.Publish("a", []byte("1"))
	s.Publish("b", []byte("2"))
	s.Close()
	s.Publish("late", nil) // dropped: closed stream
	for _, want := range []string{"a", "b"} {
		msg, err := sub.Recv()
		if err != nil || msg.Name != want {
			t.Fatalf("Recv = %q, %v; want %q, nil", msg.Name, err, want)
		}
	}
	if _, err := sub.Recv(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Recv after close = %v, want ErrStreamClosed", err)
	}
	late := s.Subscribe(SubOptions{})
	if _, err := late.Recv(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Recv on post-close subscription = %v, want ErrStreamClosed", err)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: 2})
	s.Publish("a", nil)
	sub.Cancel()
	s.Publish("b", nil) // after cancel: not delivered
	if msg, err := sub.Recv(); err != nil || msg.Name != "a" {
		t.Fatalf("Recv backlog = %q, %v; want a, nil", msg.Name, err)
	}
	if _, err := sub.Recv(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Recv after cancel = %v, want ErrStreamClosed", err)
	}
	if s.HasSubscribers() {
		t.Fatal("HasSubscribers still true after the only subscriber cancelled")
	}
}

func TestTryRecv(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(SubOptions{})
	if _, ok, err := sub.TryRecv(); ok || err != nil {
		t.Fatalf("TryRecv on empty live queue = ok=%v err=%v", ok, err)
	}
	s.Publish("a", nil)
	if msg, ok, err := sub.TryRecv(); !ok || err != nil || msg.Name != "a" {
		t.Fatalf("TryRecv = %q ok=%v err=%v", msg.Name, ok, err)
	}
	s.Close()
	if _, ok, err := sub.TryRecv(); ok || !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("TryRecv after close = ok=%v err=%v", ok, err)
	}
}

// TestStreamChurnRace hammers subscribe/receive/cancel from many
// goroutines while publishers keep publishing — the storage-side half
// of the subscriber-churn race (`make test` runs it under -race).
func TestStreamChurnRace(t *testing.T) {
	s := NewStream()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Publish(fmt.Sprintf("p%d-%d", p, i), []byte{byte(i)})
			}
		}(p)
	}
	var churn sync.WaitGroup
	for c := 0; c < 8; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			policies := SlowPolicies()
			for i := 0; i < 50; i++ {
				sub := s.Subscribe(SubOptions{Buffer: 2, Policy: policies[i%len(policies)], BlockTimeout: time.Millisecond})
				for j := 0; j < 3; j++ {
					if _, _, err := sub.TryRecv(); err != nil {
						break
					}
				}
				sub.Cancel()
			}
		}(c)
	}
	churn.Wait()
	close(stop)
	wg.Wait()
	s.Close()
}

// TestStreamPublishSeqOrder is the ordering guarantee: with several
// publishers racing, a subscriber whose queue never fills must see Seq
// strictly increasing — a message's sequence number and its place in
// every queue are decided together (run under -race by `make
// race-stress`).
func TestStreamPublishSeqOrder(t *testing.T) {
	const publishers, each = 4, 5000
	s := NewStream()
	sub := s.Subscribe(SubOptions{Buffer: publishers * each})
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Publish("obj", nil)
			}
		}()
	}
	wg.Wait()
	s.Close()
	var last uint64
	for n := 0; ; n++ {
		msg, err := sub.Recv()
		if err != nil {
			if n != publishers*each {
				t.Fatalf("received %d messages, want %d", n, publishers*each)
			}
			return
		}
		if msg.Seq <= last {
			t.Fatalf("Seq %d delivered after %d", msg.Seq, last)
		}
		last = msg.Seq
	}
}
