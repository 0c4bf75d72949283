package cluster

import (
	"fmt"
	"io"
	"log"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/topology"
)

// ClusterConfig is the service-level half of a run description: the
// shared substrate — machine, object store, token broker — that every
// tenant of a Service borrows rather than constructs. One ClusterConfig
// outlives any individual run; a RunSpec describes what one tenant does
// with it.
type ClusterConfig struct {
	// Platform sizes the cluster: Nodes core.Node instances with
	// CoresPerNode-1 simulation clients each (one core per node is
	// dedicated). Under a Service, this is the whole machine; each tenant
	// runs on a slice of it (RunSpec.Quota.Nodes).
	Platform topology.Platform
	// Fanout is the children-per-node limit of the aggregation trees
	// (default 2).
	Fanout int
	// Roots is the number of aggregation trees per tenant; each root
	// writes its subtree's merged iterations (default 1).
	Roots int
	// Store receives the root objects; any storage.ObjectStore works. Under
	// a Service it is shared by every tenant — object names stay
	// disjoint because each carries the tenant's JobName prefix.
	Store storage.ObjectStore
	// Broker, when non-nil, arbitrates root object writes across every
	// aggregation tree — of this run, and of every other tenant sharing
	// the broker. Grants are holder-tagged: tenant t's root node n
	// acquires as holder t<<20+n, so a shared broker can account waits,
	// grants, and reclaims per tenant, and ReleaseHolder on a killed
	// node never touches another tenant's tokens.
	Broker storage.TokenBroker
	// Logger defaults to a silent logger.
	Logger *log.Logger
}

// dedicatedPerNode is the number of cores per node devoted to data
// management: one, as every <dedicated cores="1"/> configuration says.
const dedicatedPerNode = 1

// withDefaults fills the zero values in place (value receiver: callers
// keep their copy unchanged).
func (cc ClusterConfig) withDefaults() ClusterConfig {
	if cc.Fanout <= 0 {
		cc.Fanout = 2
	}
	if cc.Roots <= 0 {
		cc.Roots = 1
	}
	if cc.Logger == nil {
		cc.Logger = log.New(io.Discard, "", 0)
	}
	return cc
}

// Quota bounds one tenant's draw on the shared substrate. Zero values
// mean unlimited (single-tenant runs keep today's semantics).
type Quota struct {
	// Nodes is the number of platform nodes (hence dedicated cores, one
	// each) the tenant asks for. 0 = the whole platform. The Service
	// admits the tenant only when that many nodes' dedicated cores are
	// free — or degrades the ask under AdmitDegrade.
	Nodes int
	// MaxBytes caps the encoded bytes the tenant may store. Once a
	// root's next object would cross the cap, the object is dropped —
	// the paper's skip policy applied to a tenant over budget — and
	// counted in Stats.QuotaDroppedObjects; the run keeps its liveness
	// (iterations still complete).
	MaxBytes int64
}

// RunSpec is the per-tenant half of a run description: what one
// simulation does on the substrate a ClusterConfig provides.
type RunSpec struct {
	// Meta is the per-node Damaris XML configuration.
	Meta *meta.Config
	// JobName prefixes object names (default Meta.Name). Tenants of a
	// shared Service must use distinct JobNames; the Service enforces
	// uniqueness by suffixing its tenant id when needed.
	JobName string
	// Hooks run at tree roots on every merged iteration.
	Hooks []Hook
	// Failures schedules node deaths within this tenant's run (nil or
	// empty: no failures). Node ids are tenant-local.
	Failures *FailureSchedule
	// Quota bounds the tenant's resource draw; see Quota.
	Quota Quota
	// Deadline is the tenant's completion deadline in abstract time
	// units (0 = none). AdmitDeadline admission orders the queue by it,
	// and broker requests under PolicyDeadline inherit it as the base of
	// their per-iteration deadline.
	Deadline float64
	// Priority breaks admission and broker-arbitration ties: higher
	// runs first (default 0).
	Priority int
	// Weight scales fair-share arbitration: a tenant of weight 2 is
	// entitled to twice the bytes of a weight-1 tenant before the
	// broker considers it "ahead" (default 1).
	Weight float64
	// Retain is the checkpoint retention window in iterations (0 = keep
	// everything). On a store with reference-lifecycle support
	// (storage.Retainer — the dedup chunk store), each root that stores
	// iteration N releases its object and manifest for iteration
	// N-Retain: they stay readable until the store's next GC sweep,
	// which reclaims them and every chunk only they referenced. On a
	// plain store the field is ignored.
	Retain int
}

// withDefaults fills the zero values in place.
func (spec RunSpec) withDefaults() RunSpec {
	if spec.JobName == "" && spec.Meta != nil {
		spec.JobName = spec.Meta.Name
	}
	return spec
}

// validate rejects a spec the cluster cannot run.
func (spec RunSpec) validate() error {
	if spec.Meta == nil {
		return fmt.Errorf("cluster: nil meta config")
	}
	if spec.Quota.Nodes < 0 {
		return fmt.Errorf("cluster: negative node quota %d", spec.Quota.Nodes)
	}
	return nil
}

// holderSpan is the holder-id space reserved per tenant on a shared
// broker: tenant t's node n acquires as holder t*holderSpan+n. A
// million-node platform per tenant is far beyond any configuration
// this code hosts, so the spans never collide.
const holderSpan = 1 << 20

// tenantHolderBase returns the first holder id of a tenant's span.
func tenantHolderBase(tenant int) int { return tenant * holderSpan }
