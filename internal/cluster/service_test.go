package cluster

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

const serviceTestMeta = `<simulation name="svc">
  <architecture><dedicated cores="1"/><buffer size="1048576"/></architecture>
  <data>
    <parameter name="n" value="16"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

func serviceMeta(t *testing.T) *meta.Config {
	t.Helper()
	cfg, err := meta.ParseString(serviceTestMeta)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// driveTenant pushes iterations [0, iters) through every client of a
// tenant's cluster and waits for the last one to complete.
func driveTenant(t *testing.T, tn *Tenant, iters int) {
	t.Helper()
	c := tn.Cluster()
	if c == nil {
		t.Fatalf("tenant %d has no cluster (state %s)", tn.ID(), tn.State())
	}
	driveBrokerCluster(t, c, 0, iters)
}

// TestServiceTwoTenantsSharedBrokerNoLeaks is the runtime-face
// acceptance test: two concurrent tenants on one shared broker
// complete with zero cross-tenant token leaks — every grant is
// reclaimed, each tenant's Stats carve out exactly its own holder
// span, and the per-tenant slices sum to the ServiceStats rollup and
// to the broker's own grant total.
func TestServiceTwoTenantsSharedBrokerNoLeaks(t *testing.T) {
	const (
		iters       = 3
		rootsPerTen = 2
	)
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyFairShare,
		Targets: 2, // both tenants' root windows collide: real cross-tenant contention
	})
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 4, CoresPerNode: 3},
		Roots:    rootsPerTen,
		Store:    storage.NewMemory(nil, 4, 1e9),
		Broker:   broker,
	}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var tenants [2]*Tenant
	for i := range tenants {
		tn, err := svc.Submit(RunSpec{
			Meta:    serviceMeta(t),
			JobName: []string{"alpha", "beta"}[i],
			Quota:   Quota{Nodes: 2},
			Weight:  float64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if tn.State() != TenantRunning {
			t.Fatalf("tenant %d not admitted: %s", tn.ID(), tn.State())
		}
		tenants[i] = tn
	}

	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *Tenant) {
			defer wg.Done()
			driveTenant(t, tn, iters)
			if err := tn.Finish(); err != nil {
				t.Errorf("tenant %d finish: %v", tn.ID(), err)
			}
		}(tn)
	}
	wg.Wait()

	if got := broker.Outstanding(); got != 0 {
		t.Fatalf("%d tokens leaked across tenants", got)
	}
	ss := svc.Stats()
	if ss.Completed != 2 || ss.Running != 0 {
		t.Fatalf("completed %d running %d, want 2/0", ss.Completed, ss.Running)
	}
	wantGrants := iters * rootsPerTen
	for id, st := range ss.PerTenant {
		if st.TokenGrants != wantGrants {
			t.Errorf("tenant %d: %d token grants, want %d (cross-tenant stat bleed?)",
				id, st.TokenGrants, wantGrants)
		}
		if st.ObjectsWritten != wantGrants {
			t.Errorf("tenant %d: %d objects, want %d", id, st.ObjectsWritten, wantGrants)
		}
	}
	checkTotal(t, ss)
	if bs := broker.Stats(); bs.Grants != ss.Total.TokenGrants {
		t.Fatalf("broker granted %d, tenants account %d — grants unaccounted",
			bs.Grants, ss.Total.TokenGrants)
	}
	// Shared store, disjoint namespaces: each tenant's objects carry its
	// own JobName prefix and both sets are present.
	names, err := svc.cc.Store.(storage.ObjectReader).List("")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, n := range names {
		seen[strings.SplitN(n, "-", 2)[0]]++
	}
	if len(seen) != 2 {
		t.Fatalf("want 2 tenant namespaces in the shared store, got %v", seen)
	}
}

// checkTotal asserts that ServiceStats.Total is the per-tenant sum of
// every scalar Stats field and leaves every map field nil: map keys are
// tenant-local node ids and iterations, so no cross-tenant sum of them
// means anything.
func checkTotal(t *testing.T, ss ServiceStats) {
	t.Helper()
	total := reflect.ValueOf(ss.Total)
	for i := 0; i < total.NumField(); i++ {
		f, name := total.Field(i), total.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Map:
			if !f.IsNil() {
				t.Errorf("Total.%s = %v, want nil", name, f.Interface())
			}
		case reflect.Int, reflect.Int64:
			var sum int64
			for _, st := range ss.PerTenant {
				sum += reflect.ValueOf(st).Field(i).Int()
			}
			if f.Int() != sum {
				t.Errorf("Total.%s = %d, per-tenant sum %d", name, f.Int(), sum)
			}
		case reflect.Float64:
			var sum float64
			for _, st := range ss.PerTenant {
				sum += reflect.ValueOf(st).Field(i).Float()
			}
			if math.Abs(f.Float()-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
				t.Errorf("Total.%s = %g, per-tenant sum %g", name, f.Float(), sum)
			}
		default:
			t.Fatalf("Total.%s: unhandled kind %s", name, f.Kind())
		}
	}
}

// TestServiceAdmissionFIFOQueue fills the platform, queues a second
// tenant, and checks it starts exactly when the first finishes.
func TestServiceAdmissionFIFOQueue(t *testing.T) {
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 2, CoresPerNode: 2},
		Store:    storage.NewMemory(nil, 2, 1e9),
	}, ServiceOptions{Admission: AdmitFIFO})
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Submit(RunSpec{Meta: serviceMeta(t)})
	if err != nil || a.State() != TenantRunning {
		t.Fatalf("first tenant: err=%v state=%s", err, a.State())
	}
	b, err := svc.Submit(RunSpec{Meta: serviceMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != TenantQueued {
		t.Fatalf("oversubscribed tenant state %s, want queued", b.State())
	}
	if ss := svc.Stats(); ss.Queued != 1 || ss.MaxQueued != 1 {
		t.Fatalf("queued %d maxQueued %d, want 1/1", ss.Queued, ss.MaxQueued)
	}
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("queued tenant never admitted: %v", err)
	}
	if b.State() != TenantRunning || b.Nodes() != 2 {
		t.Fatalf("dispatched tenant: state %s nodes %d", b.State(), b.Nodes())
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if ss := svc.Stats(); ss.Completed != 2 {
		t.Fatalf("completed %d, want 2", ss.Completed)
	}
}

// TestServiceAdmissionReject refuses the tenant that does not fit.
func TestServiceAdmissionReject(t *testing.T) {
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 2, CoresPerNode: 2},
		Store:    storage.NewMemory(nil, 2, 1e9),
	}, ServiceOptions{Admission: AdmitReject})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := svc.Submit(RunSpec{Meta: serviceMeta(t)})
	b, err := svc.Submit(RunSpec{Meta: serviceMeta(t)})
	if err == nil || b.State() != TenantRejected {
		t.Fatalf("oversubscribed tenant not rejected: err=%v state=%s", err, b.State())
	}
	if werr := b.Wait(); werr == nil {
		t.Fatal("Wait on a rejected tenant returned nil")
	}
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if ss := svc.Stats(); ss.Rejected != 1 || ss.Completed != 1 {
		t.Fatalf("rejected %d completed %d, want 1/1", ss.Rejected, ss.Completed)
	}
}

// TestServiceAdmissionDegrade shrinks the second tenant's ask to the
// free remainder instead of queueing it.
func TestServiceAdmissionDegrade(t *testing.T) {
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 4, CoresPerNode: 2},
		Store:    storage.NewMemory(nil, 2, 1e9),
	}, ServiceOptions{Admission: AdmitDegrade})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := svc.Submit(RunSpec{Meta: serviceMeta(t), Quota: Quota{Nodes: 3}})
	b, err := svc.Submit(RunSpec{Meta: serviceMeta(t), Quota: Quota{Nodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != TenantRunning || b.Nodes() != 1 || !b.Degraded() {
		t.Fatalf("degraded tenant: state %s nodes %d degraded %v, want running/1/true",
			b.State(), b.Nodes(), b.Degraded())
	}
	// With zero nodes free, even a degradable tenant has to queue.
	c, err := svc.Submit(RunSpec{Meta: serviceMeta(t), Quota: Quota{Nodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != TenantQueued {
		t.Fatalf("tenant with nothing free: state %s, want queued", c.State())
	}
	for _, tn := range []*Tenant{a, b} {
		if err := tn.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if ss := svc.Stats(); ss.Degraded != 1 || ss.Completed != 3 {
		t.Fatalf("degraded %d completed %d, want 1/3", ss.Degraded, ss.Completed)
	}
}

// TestServiceAdmissionDeadlineOrder queues three tenants behind a
// platform-filling one and checks EDF dispatch: priority first, then
// earliest deadline, regardless of arrival order.
func TestServiceAdmissionDeadlineOrder(t *testing.T) {
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 2, CoresPerNode: 2},
		Store:    storage.NewMemory(nil, 2, 1e9),
	}, ServiceOptions{Admission: AdmitDeadline})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := svc.Submit(RunSpec{Meta: serviceMeta(t)})
	c, _ := svc.Submit(RunSpec{Meta: serviceMeta(t), Deadline: 100})
	d, _ := svc.Submit(RunSpec{Meta: serviceMeta(t), Deadline: 10})
	e, _ := svc.Submit(RunSpec{Meta: serviceMeta(t), Deadline: 500, Priority: 1})
	for _, q := range []*Tenant{c, d, e} {
		if q.State() != TenantQueued {
			t.Fatalf("tenant %d state %s, want queued", q.ID(), q.State())
		}
	}
	// Dispatch order must be e (priority 1), d (deadline 10), c (100).
	for _, want := range []*Tenant{e, d, c} {
		prev := want
		switch want {
		case e:
			prev = a
		case d:
			prev = e
		case c:
			prev = d
		}
		if err := prev.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := want.Wait(); err != nil {
			t.Fatal(err)
		}
		if want.State() != TenantRunning {
			t.Fatalf("tenant %d (deadline %v prio %d) not dispatched next",
				want.ID(), want.spec.Deadline, want.spec.Priority)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceEvictionFreesSharedMemory is the service-level extension
// of the loss-path tests: a tenant evicted mid-iteration — pending
// merges parked at aggregators because coverage is incomplete — must
// return every block of those merges to its node's segment.
func TestServiceEvictionFreesSharedMemory(t *testing.T) {
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 4, CoresPerNode: 3},
		Store:    storage.NewMemory(nil, 2, 1e9),
	}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Submit(RunSpec{Meta: serviceMeta(t)})
	if err != nil {
		t.Fatal(err)
	}
	c := tn.Cluster()

	// Mid-iteration state: every node except the deepest leaf writes, so
	// iteration 0 forwards batches up the tree but can never reach full
	// coverage — the merges sit pending holding shared memory. (The
	// silent node must not be the root: Cancel kills nodes one by one,
	// and a promoted sibling would complete and store the iteration.)
	for n := 0; n < c.Nodes()-1; n++ {
		for s := 0; s < c.ClientsPerNode(); s++ {
			cl := c.Client(n, s)
			if err := cl.Write("theta", 0, make([]byte, 16*8)); err != nil {
				t.Fatalf("node %d src %d: %v", n, s, err)
			}
			cl.EndIteration(0)
		}
	}
	if err := waitFor(func() bool { return c.Stats().BatchesForwarded >= 1 }); err != nil {
		t.Fatalf("no batch in flight before eviction: %v", err)
	}

	if err := tn.Evict(); err != nil {
		t.Fatal(err)
	}
	if tn.State() != TenantEvicted {
		t.Fatalf("state %s, want evicted", tn.State())
	}
	st := tn.Stats()
	if st.BlocksLost == 0 {
		t.Fatal("eviction lost nothing; the mid-iteration state never existed")
	}
	segmentsFree(t, c)
	if ss := svc.Stats(); ss.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", ss.Evicted)
	}
}

// TestServiceFinishEvictRace races Finish and Evict on one tenant that
// holds the whole 4-node machine. One of them tears the cluster down and
// the nodes go back to the gate once, so of two more 4-node tenants one
// runs and one queues. A double teardown frees 8 nodes and runs both.
// The race is repeated because one trial can miss the window.
func TestServiceFinishEvictRace(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		svc, err := NewService(ClusterConfig{
			Platform: topology.Platform{Name: "svc", Nodes: 4, CoresPerNode: 3},
			Store:    storage.NewMemory(nil, 2, 1e9),
		}, ServiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := svc.Submit(RunSpec{Meta: serviceMeta(t)})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, end := range []func() error{tn.Finish, tn.Evict} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := end(); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if st := tn.State(); st != TenantDone && st != TenantEvicted {
			t.Fatalf("trial %d: raced tenant is %s", trial, st)
		}
		var states []TenantState
		for i := 0; i < 2; i++ {
			next, err := svc.Submit(RunSpec{Meta: serviceMeta(t)})
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, next.State())
		}
		if states[0] != TenantRunning || states[1] != TenantQueued {
			t.Fatalf("trial %d: two 4-node tenants after the race are %v, want [running queued]",
				trial, states)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceQuotaMaxBytes runs a tenant whose byte budget covers only
// part of its output: the over-budget objects are skipped (counted, not
// stored) and the run still completes every iteration.
func TestServiceQuotaMaxBytes(t *testing.T) {
	const iters = 4
	store := storage.NewMemory(nil, 2, 1e9)
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 2, CoresPerNode: 2},
		Store:    store,
	}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One root object per iteration; each is a bit over 128 bytes of
	// payload, so a 300-byte budget admits the first one or two objects
	// and drops the rest.
	tn, err := svc.Submit(RunSpec{
		Meta:  serviceMeta(t),
		Quota: Quota{MaxBytes: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveTenant(t, tn, iters)
	if err := tn.Finish(); err != nil {
		t.Fatal(err)
	}
	st := tn.Stats()
	if st.QuotaDroppedObjects == 0 {
		t.Fatal("no object hit the byte quota; budget not enforced")
	}
	if st.ObjectsWritten+st.QuotaDroppedObjects != iters {
		t.Fatalf("stored %d + dropped %d != %d iterations",
			st.ObjectsWritten, st.QuotaDroppedObjects, iters)
	}
	if st.ManifestsWritten != st.ObjectsWritten {
		t.Fatalf("%d manifests for %d stored objects: a dropped object has none, a stored one has one",
			st.ManifestsWritten, st.ObjectsWritten)
	}
	if st.IterationsCompleted != iters {
		t.Fatalf("iterations completed %d, want %d — quota drop broke liveness",
			st.IterationsCompleted, iters)
	}
	segmentsFree(t, tn.Cluster())
}

// TestServiceFourTenantSmoke is the race-detector smoke (make test,
// make race-stress): four tenants admitted, driven, and finished fully
// concurrently on one shared broker and store.
func TestServiceFourTenantSmoke(t *testing.T) {
	const iters = 2
	broker := storage.NewBroker(storage.BrokerOptions{
		Policy:  storage.PolicyFairShare,
		Targets: 2,
	})
	svc, err := NewService(ClusterConfig{
		Platform: topology.Platform{Name: "svc", Nodes: 4, CoresPerNode: 3},
		Store:    storage.NewMemory(nil, 4, 1e9),
		Broker:   broker,
	}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn, err := svc.Submit(RunSpec{
				Meta:     serviceMeta(t),
				Quota:    Quota{Nodes: 1},
				Priority: i % 2,
			})
			if err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			if err := tn.Wait(); err != nil {
				t.Errorf("tenant %d admission: %v", i, err)
				return
			}
			driveTenant(t, tn, iters)
			if err := tn.Finish(); err != nil {
				t.Errorf("tenant %d finish: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := broker.Outstanding(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
	ss := svc.Stats()
	if ss.Completed != 4 {
		t.Fatalf("completed %d, want 4", ss.Completed)
	}
	if ss.Total.ObjectsWritten != 4*iters {
		t.Fatalf("total objects %d, want %d", ss.Total.ObjectsWritten, 4*iters)
	}
	checkTotal(t, ss)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(RunSpec{Meta: serviceMeta(t)}); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}
