package cluster

import (
	"cmp"
	"slices"
)

// Ask is one tenant's claim on the admission gate: ID is its arrival
// order (the last tie-break), Deadline <= 0 means none.
type Ask struct {
	ID, Nodes, Priority int
	Deadline            float64
}

// Admit is one queued ask leaving the gate with its node grant.
type Admit struct{ ID, Nodes int }

// Admission is the node-counting gate in front of the machine, shared
// by both service faces: the runtime Service calls it under its mutex,
// the DES model from the simulation thread. It decides the two things
// the faces must agree on — what a new arrival gets, and whom a release
// wakes — while the drivers keep what a grant means (a Cluster, a
// des.Future).
type Admission struct {
	policy    AdmissionPolicy
	free      int
	queue     []Ask
	maxQueued int
}

// NewAdmission opens a gate over nodes free nodes.
func NewAdmission(policy AdmissionPolicy, nodes int) *Admission {
	return &Admission{policy: policy, free: nodes}
}

// Offer decides a new arrival. grant > 0: admitted now on that many
// nodes (fewer than asked only under AdmitDegrade). Otherwise queued
// tells a wait for a Release from a refusal (AdmitReject). An ask that
// fits is admitted even past a blocked queue head.
func (ad *Admission) Offer(a Ask) (grant int, queued bool) {
	switch {
	case a.Nodes <= ad.free:
		grant = a.Nodes
	case ad.policy == AdmitReject:
		return 0, false
	case ad.policy == AdmitDegrade && ad.free > 0:
		grant = ad.free
	default: // nothing free: even a degradable ask waits its turn
		ad.queue = append(ad.queue, a)
		ad.maxQueued = max(ad.maxQueued, len(ad.queue))
		return 0, true
	}
	ad.free -= grant
	return grant, false
}

// Release returns n nodes and admits queued asks in policy order —
// arrival order, or under AdmitDeadline highest priority, then earliest
// deadline, then arrival. Head-of-line blocking is deliberate: a wide
// ask at the head is not overtaken by narrow latecomers, mirroring the
// broker's own anti-starvation rule; only AdmitDegrade shrinks the head
// to what is free.
func (ad *Admission) Release(n int) []Admit {
	ad.free += n
	if ad.policy == AdmitDeadline {
		slices.SortStableFunc(ad.queue, func(a, b Ask) int {
			return cmp.Or(cmp.Compare(b.Priority, a.Priority),
				cmp.Compare(a.deadline(), b.deadline()), cmp.Compare(a.ID, b.ID))
		})
	}
	var out []Admit
	for len(ad.queue) > 0 {
		grant := ad.queue[0].Nodes
		if grant > ad.free {
			if ad.policy != AdmitDegrade || ad.free <= 0 {
				break
			}
			grant = ad.free
		}
		out = append(out, Admit{ID: ad.queue[0].ID, Nodes: grant})
		ad.queue = ad.queue[1:]
		ad.free -= grant
	}
	return out
}

// deadline orders "no deadline" after every real one.
func (a Ask) deadline() float64 {
	if a.Deadline <= 0 {
		return 1e18
	}
	return a.Deadline
}

// Withdraw removes a queued ask; it reports whether id was queued.
func (ad *Admission) Withdraw(id int) bool {
	i := slices.IndexFunc(ad.queue, func(a Ask) bool { return a.ID == id })
	if i >= 0 {
		ad.queue = slices.Delete(ad.queue, i, i+1)
	}
	return i >= 0
}

// Free returns the nodes not granted to anyone.
func (ad *Admission) Free() int { return ad.free }

// MaxQueued returns the longest the queue has been.
func (ad *Admission) MaxQueued() int { return ad.maxQueued }
