// Package topology defines the cluster platform presets used by the
// paper's evaluation: the Kraken Cray XT5 (12 cores/node, Lustre), the
// Grid'5000 testbed (24 cores/node) and a Power5 cluster (16 cores/node).
//
// The parallel-file-system parameters are calibrated so that the
// discrete-event model reproduces the I/O phenomena reported in the paper
// and its companion study (Dorier et al., CLUSTER 2012): metadata storms
// under file-per-process, shared-file lock collapse under collective I/O,
// and high-efficiency big sequential streams under dedicated-core
// aggregation. Absolute numbers are calibration, the mechanisms are not.
package topology

// PFSParams describes a Lustre-like parallel file system: one metadata
// server in front of OSTs (object storage targets) that serve concurrent
// write streams with pattern-dependent efficiency.
type PFSParams struct {
	OSTs         int     // number of object storage targets
	OSTBandwidth float64 // effective sequential peak per OST, bytes/s
	StripeSize   int64   // bytes per stripe unit

	// Metadata service times (seconds per operation, serialized at the MDS).
	MDSCreate float64
	MDSOpen   float64
	MDSClose  float64

	// FileOverhead is the fixed OST-side cost charged once per file
	// stream (object allocation, initial seeks); it is what makes many
	// small files slower than one aggregated file of the same volume.
	FileOverhead float64

	// Concurrency efficiency: a stream of a given access pattern writing
	// alongside n-1 other streams on the same OST achieves
	//   base / (1 + alpha*(n-1))
	// of the OST peak, shared equally among streams.
	AlphaSeq    float64 // unique big sequential files (dedicated cores)
	SmallBase   float64 // base efficiency of small per-process files (seeks)
	AlphaSmall  float64 // degradation per extra small-file stream (FPP)
	SharedBase  float64 // base efficiency for a shared file (extent locks)
	AlphaShared float64

	// Per-request multiplicative jitter: UnitLogNormal(JitterSigma).
	// Independently, with probability HeavyTailProb a request suffers an
	// additive straggler delay of Pareto(HeavyTailScale, HeavyTailAlpha)
	// seconds (a stuck RPC, a server hiccup).
	JitterSigma    float64
	HeavyTailProb  float64
	HeavyTailAlpha float64
	HeavyTailScale float64 // seconds

	// Cross-application interference: at each I/O phase every OST draws a
	// congestion factor UnitLogNormal(CongestionSigma) that divides its
	// bandwidth for the duration of the phase.
	CongestionSigma float64
}

// Platform describes one machine of the evaluation.
type Platform struct {
	Name         string
	Nodes        int
	CoresPerNode int

	// NICBandwidth is the per-node injection bandwidth (bytes/s), used by
	// the collective two-phase exchange.
	NICBandwidth float64
	// NICLatency is the per-message latency (seconds).
	NICLatency float64

	// ShmBandwidth is the node-local memory copy bandwidth seen by a
	// simulation core writing into the shared-memory segment (bytes/s).
	ShmBandwidth float64
	// ShmWriteOverhead is the fixed per-variable overhead of a Damaris
	// write call (metadata registration, queue event), seconds.
	ShmWriteOverhead float64

	PFS PFSParams
}

// Cores returns the total core count.
func (p Platform) Cores() int { return p.Nodes * p.CoresPerNode }

// WithNodes returns a copy of the platform resized to n nodes (weak
// scaling keeps the per-node PFS unchanged: the file system does not grow
// with the job).
func (p Platform) WithNodes(n int) Platform {
	p.Nodes = n
	return p
}

const mb = 1 << 20

// Kraken returns a Kraken-Cray-XT5-like platform: 12 cores per node and a
// Lustre file system with a single MDS and 336 OSTs.
func Kraken(nodes int) Platform {
	return Platform{
		Name:         "kraken",
		Nodes:        nodes,
		CoresPerNode: 12,
		NICBandwidth: 1.6e9,
		NICLatency:   5e-6,
		// Client-observable memcpy bandwidth into shm and the fixed cost
		// of one damaris_write call; 20 variables × (size/5 GB/s + 4 ms)
		// lands near the ~0.1 s the paper reports.
		ShmBandwidth:     5e9,
		ShmWriteOverhead: 4e-3,
		PFS: PFSParams{
			OSTs:            336,
			OSTBandwidth:    100e6,
			StripeSize:      1 * mb,
			MDSCreate:       3e-3,
			MDSOpen:         1e-3,
			MDSClose:        0.5e-3,
			FileOverhead:    0.10,
			AlphaSeq:        0.30,
			SmallBase:       0.85,
			AlphaSmall:      0.27,
			SharedBase:      0.045,
			AlphaShared:     0.15,
			JitterSigma:     0.30,
			HeavyTailProb:   0.002,
			HeavyTailAlpha:  1.3,
			HeavyTailScale:  2.0,
			CongestionSigma: 0.20,
		},
	}
}

// Grid5000 returns a Grid'5000-Rennes-like platform: 24 cores per node and
// a smaller cluster file system.
func Grid5000(nodes int) Platform {
	return Platform{
		Name:             "grid5000",
		Nodes:            nodes,
		CoresPerNode:     24,
		NICBandwidth:     1.25e9, // 10 GbE
		NICLatency:       20e-6,
		ShmBandwidth:     6e9,
		ShmWriteOverhead: 4e-3,
		PFS: PFSParams{
			OSTs:            24,
			OSTBandwidth:    60e6,
			StripeSize:      1 * mb,
			MDSCreate:       2e-3,
			MDSOpen:         0.8e-3,
			MDSClose:        0.4e-3,
			FileOverhead:    0.12,
			AlphaSeq:        0.35,
			SmallBase:       0.85,
			AlphaSmall:      0.30,
			SharedBase:      0.045,
			AlphaShared:     0.15,
			JitterSigma:     0.35,
			HeavyTailProb:   0.003,
			HeavyTailAlpha:  1.3,
			HeavyTailScale:  2.0,
			CongestionSigma: 0.30,
		},
	}
}

// Power5 returns a Power5-cluster-like platform: 16 cores per node, GPFS-
// like storage with fewer, faster servers.
func Power5(nodes int) Platform {
	return Platform{
		Name:             "power5",
		Nodes:            nodes,
		CoresPerNode:     16,
		NICBandwidth:     2e9,
		NICLatency:       8e-6,
		ShmBandwidth:     4e9,
		ShmWriteOverhead: 4e-3,
		PFS: PFSParams{
			OSTs:            48,
			OSTBandwidth:    80e6,
			StripeSize:      4 * mb,
			MDSCreate:       1.5e-3,
			MDSOpen:         0.7e-3,
			MDSClose:        0.3e-3,
			FileOverhead:    0.10,
			AlphaSeq:        0.25,
			SmallBase:       0.90,
			AlphaSmall:      0.30,
			SharedBase:      0.055,
			AlphaShared:     0.12,
			JitterSigma:     0.25,
			HeavyTailProb:   0.002,
			HeavyTailAlpha:  1.3,
			HeavyTailScale:  2.0,
			CongestionSigma: 0.25,
		},
	}
}

// ByName returns the preset platform with the given name resized to nodes,
// or false if unknown. Recognized names: kraken, grid5000, power5.
func ByName(name string, nodes int) (Platform, bool) {
	switch name {
	case "kraken":
		return Kraken(nodes), true
	case "grid5000":
		return Grid5000(nodes), true
	case "power5":
		return Power5(nodes), true
	}
	return Platform{}, false
}
