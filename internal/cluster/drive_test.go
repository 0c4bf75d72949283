package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/storage"
)

// segmentsFree fails t unless every node's shared-memory segment is
// empty: each block went back to its segment when its batch left the
// data path, or when its node shut down with the iteration unfinished.
func segmentsFree(t *testing.T, c *Cluster) {
	t.Helper()
	for n := 0; n < c.Nodes(); n++ {
		if got := c.Node(n).Segment().Allocated(); got != 0 {
			t.Errorf("node %d: %d bytes of shared memory still allocated", n, got)
		}
	}
}

// TestDriveWriteErrorSurfaces makes client writes fail mid-run. The
// failed client never ends its iteration, so no root can ever store it:
// the driver must hand the error back instead of waiting on the last
// iteration, and the caller's Shutdown must still release every
// goroutine and shared-memory block of the half-finished run.
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
			segmentsFree(t, c)
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

// blockMeta declares one variable "theta" of blockBytes bytes on nodes
// whose segment holds segBlocks such blocks.
func blockMeta(t *testing.T, blockBytes, segBlocks int) *meta.Config {
	t.Helper()
	cfg, err := meta.ParseString(fmt.Sprintf(`<simulation name="shmtest">
	  <architecture><dedicated cores="1"/><buffer size="%d"/></architecture>
	  <data><layout name="block" type="uint8" dimensions="%d"/><variable name="theta" layout="block"/></data>
	</simulation>`, segBlocks*blockBytes, blockBytes))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestForwardPathAllocBudget drives a small run of the ckpt-plain shape
// (two fanout-2 trees, large blocks, a plain store) and counts what the
// path from a client's Write to the stored object costs: no pooled
// buffer, and heap bytes per user byte near the one copy the memory
// store keeps. A copy of the blocks out of shared memory on the way up
// the tree, pooled or not, fails it.
func TestForwardPathAllocBudget(t *testing.T) {
	const nodes, clients, iters, blockBytes = 4, 2, 8, 64 << 10
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Roots:    2,
		Store:    storage.NewMemory(nil, 4, 1e9),
	}, RunSpec{Meta: blockMeta(t, blockBytes, 4*clients)})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, blockBytes)
	var before, after runtime.MemStats
	runtime.GC()
	pool := buf.Stats()
	runtime.ReadMemStats(&before)
	err = Drive(c, Workload{Variable: "theta", To: iters,
		Payload:       func(int, int, int) []byte { return block },
		EachIteration: func(int) error { return nil }})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	segmentsFree(t, c)
	if gets := buf.Stats().Gets - pool.Gets; gets != 0 {
		t.Errorf("the run took %d pooled buffers, want 0", gets)
	}
	// The memory store's own copy is 1 per user byte; manifests,
	// framing and the run's bookkeeping add about 0.04 (measured 1.04
	// on linux/amd64). A second copy of the payload makes it 2.
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes*clients*iters*blockBytes)
	t.Logf("%.3f heap bytes allocated per user byte", perByte)
	if perByte > 1.25 {
		t.Errorf("%.3f heap bytes allocated per user byte, budget 1.25", perByte)
	}
}

// gatedStore is a memory store whose data Puts wait until the test
// closes gate: a back end too slow for the run.
type gatedStore struct {
	*storage.Memory
	gate chan struct{}
}

// PutVec implements storage.VecStore, after the gate opens.
func (s gatedStore) PutVec(name string, segs [][]byte) error {
	<-s.gate
	return storage.PutVec(s.Memory, name, segs)
}

// TestSlowStoreSkipsAtTheClient is the paper's back-pressure path: the
// roots cannot store, so every forwarded block stays in its node's
// segment until the segment is full and a client's Write is skipped —
// counted where the paper counts it, with nothing lost in the tree.
// Once the store moves again, every block written is restored.
func TestSlowStoreSkipsAtTheClient(t *testing.T) {
	const nodes, clients, blockBytes = 3, 2, 512
	store := gatedStore{storage.NewMemory(nil, 4, 1e9), make(chan struct{})}
	c, err := New(ClusterConfig{
		Platform: testPlatform(nodes, clients+1),
		Fanout:   2,
		Store:    store,
	}, RunSpec{Meta: blockMeta(t, blockBytes, 4*clients), JobName: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, blockBytes)
	produced, skipped, it := 0, 0, 0
	for ; skipped == 0; it++ {
		if it == 64 {
			t.Fatal("no write skipped in 64 iterations: the blocks left shared memory before their store")
		}
		for n := 0; n < nodes; n++ {
			for s := 0; s < clients; s++ {
				produced++
				if err := c.Client(n, s).Write("theta", it, block); errors.Is(err, core.ErrSkipped) {
					skipped++
				} else if err != nil {
					t.Fatal(err)
				}
				c.Client(n, s).EndIteration(it)
			}
			// The dedicated core has handed the iteration on: what the
			// segment holds now is what the data path holds.
			c.Node(n).WaitIteration(it)
		}
	}
	counted := 0
	for n := 0; n < nodes; n++ {
		counted += int(c.Node(n).Stats().SkippedWrites)
	}
	if counted != skipped {
		t.Errorf("nodes counted %d skipped writes, clients saw %d", counted, skipped)
	}
	if st := c.Stats(); st.BlocksLost != 0 || st.ObjectsWritten != 0 {
		t.Errorf("before the store moved: %d blocks lost, %d objects written; want 0, 0", st.BlocksLost, st.ObjectsWritten)
	}

	close(store.gate)
	c.WaitIteration(it - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	segmentsFree(t, c)
	if lost := c.Stats().BlocksLost; lost != 0 {
		t.Errorf("%d blocks lost", lost)
	}
	r, err := Restore(store.Memory, "slow")
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBlocks()+skipped != produced {
		t.Errorf("produced %d blocks, restored %d + skipped %d", produced, r.TotalBlocks(), skipped)
	}
}
