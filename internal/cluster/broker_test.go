package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

const brokerTestMeta = `<simulation name="broker">
  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
  <data>
    <parameter name="n" value="16"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

// driveBrokerCluster pushes iterations [from, to) through every client
// and waits for the last to be stored.
func driveBrokerCluster(t *testing.T, c *Cluster, from, to int) {
	t.Helper()
	data := make([]byte, 16*8)
	err := Drive(c, Workload{Variable: "theta", From: from, To: to,
		Payload: func(int, int, int) []byte { return data }})
	if err != nil {
		t.Error(err)
	}
}

// TestClusterBrokerCoordinatesRoots runs a 2-tree cluster through a
// shared broker: every root Put rides a token grant and every token
// comes back.
func TestClusterBrokerCoordinatesRoots(t *testing.T) {
	const (
		nodes   = 4
		clients = 2
		iters   = 3
		roots   = 2
	)
	cfg, err := meta.ParseString(brokerTestMeta)
	if err != nil {
		t.Fatal(err)
	}
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyDeadline,
		Targets: 1, // both trees contend for the same target
	})
	c, err := New(ClusterConfig{
		Platform: topology.Platform{Name: "broker", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   2,
		Roots:    roots,
		Store:    storage.NewMemory(nil, 4, 1e9),
		Broker:   broker,
	}, RunSpec{Meta: cfg})
	if err != nil {
		t.Fatal(err)
	}
	driveBrokerCluster(t, c, 0, iters)
	c.WaitIteration(iters - 1)
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ObjectsWritten != iters*roots {
		t.Fatalf("objects written %d, want %d", st.ObjectsWritten, iters*roots)
	}
	if st.TokenGrants != iters*roots {
		t.Fatalf("token grants %d, want one per root object (%d)", st.TokenGrants, iters*roots)
	}
	if broker.Outstanding() != 0 {
		t.Fatalf("%d tokens still held after shutdown", broker.Outstanding())
	}
	if st.IterationsCompleted != iters {
		t.Fatalf("iterations completed %d, want %d", st.IterationsCompleted, iters)
	}
}

// gateStore blocks data Puts until the gate opens, so a test can hold a
// root inside its write while the failure schedule kills nodes.
type gateStore struct {
	storage.ObjectStore
	gate    chan struct{}
	started chan string
}

func (g *gateStore) Put(name string, data []byte) error {
	select {
	case g.started <- name:
	default:
	}
	<-g.gate
	return g.ObjectStore.Put(name, data)
}

// TestDeadRootReleasesToken is the failure-aware release fix: a root
// killed by the schedule while holding (or queued for) a write token
// must not strand it — the broker reclaims the token and the surviving
// root's write proceeds.
func TestDeadRootReleasesToken(t *testing.T) {
	cfg, err := meta.ParseString(brokerTestMeta)
	if err != nil {
		t.Fatal(err)
	}
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyDeadline,
		Targets: 1, // one token: the two roots serialize on it
	})
	gate := &gateStore{
		ObjectStore: storage.NewMemory(nil, 1, 1e9),
		gate:        make(chan struct{}),
		started:     make(chan string, 4),
	}
	// Two single-node trees; node 0 dies at iteration 1, while iteration
	// 0's store is still gated in flight.
	c, err := New(ClusterConfig{
		Platform: topology.Platform{Name: "broker", Nodes: 2, CoresPerNode: 2},
		Fanout:   2,
		Roots:    2,
		Store:    gate,
		Broker:   broker,
	}, RunSpec{
		Meta:     cfg,
		Failures: NewFailureSchedule().Add(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Iteration 0: both roots head for the store; one holds the token
	// inside the gated Put, the other queues on the broker. The drivers
	// return once the gate has opened and their iteration is stored.
	var drivers sync.WaitGroup
	drive := func(it int) {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			driveBrokerCluster(t, c, it, it+1)
		}()
	}
	drive(0)
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no root reached the store")
	}
	if err := waitFor(func() bool { return broker.QueueLen() == 1 }); err != nil {
		t.Fatalf("second root never queued for the token: %v", err)
	}

	// Iteration 1 kills node 0 (its forwarder sees the death iteration)
	// while the token is held and the queue populated.
	drive(1)
	if err := waitFor(func() bool { return c.Stats().NodesFailed == 1 }); err != nil {
		t.Fatalf("scheduled death never happened: %v", err)
	}

	close(gate.gate)
	drivers.Wait()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.TokensReclaimed == 0 {
		t.Fatal("the dead root's token (held or queued) was never reclaimed")
	}
	if broker.Outstanding() != 0 {
		t.Fatalf("%d tokens stranded after the failure", broker.Outstanding())
	}
	if st.ObjectsWritten == 0 {
		t.Fatal("the surviving root stored nothing")
	}
	if st.NodesFailed != 1 {
		t.Fatalf("nodes failed %d, want 1", st.NodesFailed)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("condition not reached in 5s")
}
