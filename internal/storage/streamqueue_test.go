package storage

import (
	"slices"
	"testing"
)

// TestStreamQueuePolicies is the slow-consumer decision table both
// faces stand on: every policy against a queue with room, a full queue
// and a closed queue — the outcome, what stays queued (oldest first)
// and what was counted as dropped.
func TestStreamQueuePolicies(t *testing.T) {
	const capacity = 2
	for _, tc := range []struct {
		policy  SlowPolicy
		state   string // room, full, closed
		want    Offered
		queued  []int // after offering 9
		dropped uint64
	}{
		{DropOldest, "room", Queued, []int{1, 9}, 0},
		{DropOldest, "full", Evicted, []int{2, 9}, 1},
		{DropOldest, "closed", Closed, []int{1, 2}, 0},
		{Block, "room", Queued, []int{1, 9}, 0},
		{Block, "full", MustWait, []int{1, 2}, 0},
		{Block, "closed", Closed, []int{1, 2}, 0},
		{Sample, "room", Queued, []int{1, 9}, 0},
		{Sample, "full", Refused, []int{1, 2}, 1},
		{Sample, "closed", Closed, []int{1, 2}, 0},
	} {
		t.Run(string(tc.policy)+"/"+tc.state, func(t *testing.T) {
			q := NewStreamQueue[int](capacity, tc.policy)
			q.Offer(1)
			if tc.state != "room" {
				q.Offer(2)
			}
			if tc.state == "closed" {
				q.Close()
			}
			if got := q.Offer(9); got != tc.want {
				t.Fatalf("Offer = %v, want %v", got, tc.want)
			}
			if q.Dropped() != tc.dropped || q.Len() != len(tc.queued) || q.IsClosed() != (tc.state == "closed") {
				t.Fatalf("Dropped %d Len %d IsClosed %v, want %d %d %v", q.Dropped(), q.Len(), q.IsClosed(),
					tc.dropped, len(tc.queued), tc.state == "closed")
			}
			// The backlog drains oldest first, closed or not.
			var got []int
			for v, ok := q.Take(); ok; v, ok = q.Take() {
				got = append(got, v)
			}
			if !slices.Equal(got, tc.queued) {
				t.Fatalf("drained %v, want %v", got, tc.queued)
			}
			// A Block publisher that was told to wait gets in once there is room.
			if tc.want == MustWait {
				if got := q.Offer(9); got != Queued {
					t.Fatalf("Offer after the drain = %v, want Queued", got)
				}
			}
		})
	}
}
