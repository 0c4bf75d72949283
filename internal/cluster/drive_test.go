package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/storage"
)

// TestDriveWriteErrorSurfaces makes client writes fail mid-run. The
// failed client never ends its iteration, so no root can ever store it:
// the driver must hand the error back instead of waiting on the last
// iteration, and the caller's Shutdown must still release every
// goroutine and pooled buffer of the half-finished run.
func TestDriveWriteErrorSurfaces(t *testing.T) {
	const nodes, clients, iters = 4, 2, 3
	onePayloadShort := func(n, s, it int) []byte {
		if n == 2 && s == 1 && it == 1 {
			return make([]byte, 8) // not the declared 512 bytes
		}
		return payload(n, s, it)
	}
	for _, tc := range []struct {
		name     string
		w        Workload
		lockstep bool
		want     string
	}{
		{"one client, free-running", Workload{Variable: "theta", Payload: onePayloadShort}, false, "node 2 source 1 iteration 1"},
		{"one client, lockstep", Workload{Variable: "theta", Payload: onePayloadShort}, true, "node 2 source 1 iteration 1"},
		{"undeclared variable", Workload{Variable: "nope", Payload: payload}, false, `unknown variable "nope"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			base := buf.Stats()
			c, err := New(ClusterConfig{
				Platform: testPlatform(nodes, clients+1),
				Store:    storage.NewMemory(nil, 4, 1e9),
			}, RunSpec{Meta: testMeta(t)})
			if err != nil {
				t.Fatal(err)
			}
			tc.w.To = iters
			if tc.lockstep {
				tc.w.EachIteration = func(int) error { return nil }
			}
			done := make(chan error, 1)
			go func() { done <- Drive(c, tc.w) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Drive = %v, want an error naming %q", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Drive is waiting on an iteration the failed client never ended")
			}
			if err := c.Shutdown(); err != nil {
				t.Fatal(err)
			}
			now := buf.Stats()
			if gets, puts := now.Gets-base.Gets, now.Puts-base.Puts; gets != puts {
				t.Fatalf("pooled buffers leaked: %d gets, %d puts", gets, puts)
			}
			if err := waitFor(func() bool { return runtime.NumGoroutine() <= goroutines }); err != nil {
				t.Fatalf("%d goroutines before the run, %d after Shutdown", goroutines, runtime.NumGoroutine())
			}
		})
	}
}

// TestDriveLockstepOrder: with EachIteration set, every iteration is
// stored before its callback runs and before any client starts the next.
func TestDriveLockstepOrder(t *testing.T) {
	const nodes, clients, iters = 5, 2, 4
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, RunSpec{Meta: testMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	err = Drive(c, Workload{Variable: "theta", From: 1, To: iters, Payload: payload,
		EachIteration: func(it int) error {
			seen = append(seen, it)
			if st := c.Stats(); st.ObjectsWritten != len(seen) || st.Completeness[it] != 1 {
				t.Errorf("callback %d: %d objects written, completeness %v", it, st.ObjectsWritten, st.Completeness[it])
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !equalInts(seen, []int{1, 2, 3}) {
		t.Fatalf("callbacks ran for %v, want [1 2 3]", seen)
	}
}
