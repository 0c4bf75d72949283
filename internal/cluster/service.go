package cluster

import (
	"fmt"
	"sync"
)

// AdmissionPolicy decides what a Service does with a tenant whose node
// quota exceeds the dedicated cores currently free.
type AdmissionPolicy string

const (
	// AdmitFIFO queues oversubscribed tenants in arrival order.
	AdmitFIFO AdmissionPolicy = "fifo"
	// AdmitDeadline queues oversubscribed tenants and dispatches the
	// highest-priority, earliest-deadline tenant first (EDF).
	AdmitDeadline AdmissionPolicy = "deadline"
	// AdmitReject refuses oversubscribed tenants outright.
	AdmitReject AdmissionPolicy = "reject"
	// AdmitDegrade shrinks an oversubscribed tenant's ask to whatever is
	// free right now — the paper's skip policy applied to admission:
	// run smaller (losing per-node throughput) rather than wait. A
	// tenant arriving when nothing is free still queues.
	AdmitDegrade AdmissionPolicy = "degrade"
)

// ValidateAdmissionPolicy rejects unknown policy names (NewService).
func ValidateAdmissionPolicy(p AdmissionPolicy) error {
	switch p {
	case AdmitFIFO, AdmitDeadline, AdmitReject, AdmitDegrade:
		return nil
	}
	return fmt.Errorf("cluster: unknown admission policy %q", p)
}

// TenantState is one tenant's position in the Service lifecycle.
type TenantState string

const (
	// TenantQueued: submitted, waiting for dedicated cores.
	TenantQueued TenantState = "queued"
	// TenantRunning: admitted; Cluster() is live.
	TenantRunning TenantState = "running"
	// TenantDone: finished and shut down cleanly.
	TenantDone TenantState = "done"
	// TenantRejected: refused at admission (policy or invalid spec).
	TenantRejected TenantState = "rejected"
	// TenantEvicted: cancelled mid-run; resources reclaimed.
	TenantEvicted TenantState = "evicted"
)

// ServiceOptions tunes a Service beyond its substrate.
type ServiceOptions struct {
	// Admission picks the oversubscription policy (default AdmitFIFO).
	Admission AdmissionPolicy
}

// Service is a long-lived multi-tenant run host: it owns a shared
// topology.Platform, a shared storage.TokenBroker and a shared object
// store, and admits N concurrent tenant runs that borrow slices of
// them. Admission is counted in dedicated cores: each platform node
// carries one dedicated core, a tenant's Quota.Nodes claims that many
// nodes' worth, and when the claim exceeds what is free the Admission
// policy decides — queue (FIFO or EDF), reject, or degrade to a
// smaller slice. Cross-tenant interference at the storage targets is
// arbitrated by the shared broker through holder-tagged grants; see
// ClusterConfig.Broker.
type Service struct {
	cc ClusterConfig

	mu       sync.Mutex
	gate     *Admission // free nodes and the policy-ordered queue
	tenants  []*Tenant  // submission order, all states; index = tenant id
	jobNames map[string]bool
	closed   bool
	degraded int // rollup counter not derivable from tenant states alone
}

// NewService opens a multi-tenant run host over the given substrate.
func NewService(cc ClusterConfig, opts ServiceOptions) (*Service, error) {
	cc = cc.withDefaults()
	if cc.Platform.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: platform has %d nodes", cc.Platform.Nodes)
	}
	if cc.Store == nil {
		return nil, fmt.Errorf("cluster: nil object store")
	}
	if opts.Admission == "" {
		opts.Admission = AdmitFIFO
	}
	if err := ValidateAdmissionPolicy(opts.Admission); err != nil {
		return nil, err
	}
	return &Service{
		cc:       cc,
		gate:     NewAdmission(opts.Admission, cc.Platform.Nodes),
		jobNames: map[string]bool{},
	}, nil
}

// Tenant is one admitted (or queued, or refused) run inside a Service.
type Tenant struct {
	svc  *Service
	id   int
	spec RunSpec
	need int // node ask after clamping

	// Guarded by svc.mu.
	state    TenantState
	nodes    int // granted (may be < need under AdmitDegrade)
	degraded bool
	cluster  *Cluster
	err      error
	final    Stats // snapshot at Finish/Evict

	decided  chan struct{} // closed when state leaves TenantQueued
	teardown sync.Once     // the one Finish or Evict that ends the run
}

// ID returns the tenant's service-unique id.
func (t *Tenant) ID() int { return t.id }

// State returns the tenant's lifecycle state.
func (t *Tenant) State() TenantState {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.state
}

// Err returns the admission or shutdown error, if any.
func (t *Tenant) Err() error {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.err
}

// Nodes returns the node count actually granted (0 until admitted).
func (t *Tenant) Nodes() int {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.nodes
}

// Degraded reports whether admission shrank the tenant's node ask.
func (t *Tenant) Degraded() bool {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.degraded
}

// Cluster returns the tenant's live cluster (nil unless Running). The
// caller drives it exactly like a standalone one — Client writes,
// WaitIteration — but must end it through Finish or Evict, never the
// cluster's own Shutdown, so the Service can reclaim the cores.
func (t *Tenant) Cluster() *Cluster {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.cluster
}

// Wait blocks until the admission decision: nil once the tenant is
// running (or already finished), the admission error otherwise.
func (t *Tenant) Wait() error {
	<-t.decided
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	if t.state == TenantRejected {
		return t.err
	}
	return nil
}

// Stats returns the tenant's counters: live ones while running, the
// final snapshot afterwards.
func (t *Tenant) Stats() Stats {
	t.svc.mu.Lock()
	c, state, final := t.cluster, t.state, t.final
	t.svc.mu.Unlock()
	if state == TenantRunning && c != nil {
		return c.Stats()
	}
	return final
}

// Submit asks the Service to run one more simulation. The admission
// decision is immediate: the returned tenant is Running, Queued, or
// Rejected (with the error also returned). Queued tenants start
// automatically when cores free up; use Wait to block for that.
func (s *Service) Submit(spec RunSpec) (*Tenant, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("cluster: service is closed")
	}
	t := &Tenant{
		svc:     s,
		id:      len(s.tenants),
		spec:    spec,
		state:   TenantQueued,
		decided: make(chan struct{}),
	}
	// Tenants share one object store; distinct JobName prefixes keep
	// their objects (and manifests) disjoint.
	if s.jobNames[t.spec.JobName] {
		t.spec.JobName = fmt.Sprintf("%s-t%02d", t.spec.JobName, t.id)
	}
	s.jobNames[t.spec.JobName] = true
	t.need = spec.Quota.Nodes
	if t.need <= 0 || t.need > s.cc.Platform.Nodes {
		t.need = s.cc.Platform.Nodes
	}
	s.tenants = append(s.tenants, t)

	grant, queued := s.gate.Offer(Ask{ID: t.id, Nodes: t.need,
		Priority: t.spec.Priority, Deadline: t.spec.Deadline})
	switch {
	case grant > 0:
		s.startLocked(t, grant)
	case !queued:
		s.rejectLocked(t, fmt.Errorf(
			"cluster: tenant %d needs %d nodes, %d free", t.id, t.need, s.gate.Free()))
	}
	return t, t.err
}

// startLocked runs t on the grant nodes the gate gave it; a tenant
// whose cluster cannot be built is rejected and its nodes go back.
// Callers hold s.mu.
func (s *Service) startLocked(t *Tenant, grant int) {
	cc := s.cc
	cc.Platform = cc.Platform.WithNodes(grant)
	c, err := newTenantCluster(cc, t.spec, t.id)
	if err != nil {
		s.rejectLocked(t, err)
		s.releaseLocked(grant)
		return
	}
	t.nodes = grant
	t.degraded = grant < t.need
	if t.degraded {
		s.degraded++
	}
	t.cluster = c
	t.state = TenantRunning
	close(t.decided)
}

// rejectLocked refuses t with err. Callers hold s.mu.
func (s *Service) rejectLocked(t *Tenant, err error) {
	t.state = TenantRejected
	t.err = err
	close(t.decided)
}

// Finish ends a running tenant cleanly: the cluster is shut down, its
// final stats snapshotted, the cores returned, and the queue
// re-dispatched. Returns the shutdown error (also kept in Err).
func (t *Tenant) Finish() error { return t.svc.end(t, TenantDone) }

// Evict cancels a running tenant mid-flight: every node is killed, the
// tenant's broker tokens are reclaimed, the shared-memory blocks of
// in-flight batches are freed, and the cores go back to the pool.
func (t *Tenant) Evict() error { return t.svc.end(t, TenantEvicted) }

// end is the shared teardown of Finish and Evict. The first call on a
// running tenant tears its cluster down and returns its nodes to the
// gate; a racing call waits for that teardown and returns its error.
func (s *Service) end(t *Tenant, final TenantState) error {
	s.mu.Lock()
	if t.state != TenantRunning {
		// Not running: dequeue if queued, keep terminal states as-is.
		if s.gate.Withdraw(t.id) {
			s.rejectLocked(t, fmt.Errorf("cluster: tenant %d withdrawn while queued", t.id))
		}
		err := t.err
		s.mu.Unlock()
		return err
	}
	c := t.cluster
	s.mu.Unlock()

	t.teardown.Do(func() {
		// Teardown happens outside s.mu: Shutdown drains node goroutines
		// that may be blocked on broker tokens another tenant holds.
		var err error
		if final == TenantEvicted {
			err = c.Cancel()
		} else {
			err = c.Shutdown()
		}
		final2 := c.Stats()

		s.mu.Lock()
		t.state = final
		t.err = err
		t.final = final2
		s.releaseLocked(t.nodes)
		s.mu.Unlock()
	})
	return t.Err()
}

// releaseLocked returns n nodes to the gate and starts the queued
// tenants it admits, in the gate's policy order. Callers hold s.mu.
func (s *Service) releaseLocked(n int) {
	for _, a := range s.gate.Release(n) {
		s.startLocked(s.tenants[a.ID], a.Nodes)
	}
}

// ServiceStats is the cross-tenant rollup: per-tenant Stats plus their
// sum and the admission counters. PerTenant holds every tenant that
// ever ran (live ones snapshotted now); Total sums their scalar
// counters only, so on a shared broker the per-tenant token slices add
// back up to what the broker granted the service as a whole. Total's
// map fields are nil: their keys are tenant-local.
type ServiceStats struct {
	Submitted int
	Running   int
	Queued    int
	Completed int
	Rejected  int
	Evicted   int
	Degraded  int
	MaxQueued int
	PerTenant map[int]Stats
	Total     Stats
}

// Stats snapshots the service-wide rollup.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	out := ServiceStats{
		Submitted: len(s.tenants),
		Degraded:  s.degraded,
		MaxQueued: s.gate.MaxQueued(),
		PerTenant: map[int]Stats{},
	}
	type live struct {
		id int
		c  *Cluster
	}
	var lives []live
	for _, t := range s.tenants {
		switch t.state {
		case TenantRunning:
			out.Running++
			lives = append(lives, live{t.id, t.cluster})
		case TenantQueued:
			out.Queued++
		case TenantDone:
			out.Completed++
			out.PerTenant[t.id] = t.final
		case TenantRejected:
			out.Rejected++
		case TenantEvicted:
			out.Evicted++
			out.PerTenant[t.id] = t.final
		}
	}
	s.mu.Unlock()
	// Live clusters are snapshotted outside s.mu: Cluster.Stats takes
	// the cluster's own lock and reads the shared broker.
	for _, l := range lives {
		out.PerTenant[l.id] = l.c.Stats()
	}
	for _, st := range out.PerTenant {
		out.Total.add(st)
	}
	return out
}

// Close shuts the service: queued tenants are rejected, running ones
// evicted, and further Submits refused. Returns the first eviction
// error.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	var running []*Tenant
	for _, t := range s.tenants {
		if s.gate.Withdraw(t.id) {
			s.rejectLocked(t, fmt.Errorf("cluster: service closed while tenant %d queued", t.id))
		}
		if t.state == TenantRunning {
			running = append(running, t)
		}
	}
	s.mu.Unlock()
	var first error
	for _, t := range running {
		if err := t.Evict(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
