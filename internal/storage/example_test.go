package storage_test

import (
	"fmt"

	"repro/internal/storage"
)

// Example_subscribe attaches a bounded subscriber to a stream hub and
// receives each published object live — the consumer side of the
// in-situ pipeline. A run publishes its root objects on such a hub
// through cluster.NewStreamingHook (see docs/STREAMING.md).
func Example_subscribe() {
	st := storage.NewStream()
	sub := st.Subscribe(storage.SubOptions{Buffer: 4, Policy: storage.DropOldest})

	for it := 0; it < 3; it++ {
		st.Publish(fmt.Sprintf("job-root000-it%06d", it), []byte{byte(it)})
	}
	st.Close()

	for {
		msg, err := sub.Recv()
		if err != nil {
			return // ErrStreamClosed after the backlog drains
		}
		fmt.Printf("seq %d: %s (%d bytes)\n", msg.Seq, msg.Name, len(msg.Data))
	}
	// Output:
	// seq 1: job-root000-it000000 (1 bytes)
	// seq 2: job-root000-it000001 (1 bytes)
	// seq 3: job-root000-it000002 (1 bytes)
}
