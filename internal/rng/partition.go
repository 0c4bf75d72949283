package rng

import "hash/fnv"

// SimulationKey names one deterministic stream inside a partitioned
// simulation: a root Seed, the Subsystem drawing from the stream
// ("cadence", "size", "platform", …), and an optional Entity index
// within that subsystem (a node, a rank, a tenant).
//
// The stream a key selects is a pure function of the key — it does not
// depend on construction order, on how many values any other stream has
// produced, or on which goroutine asks. That is the determinism
// contract the workload generator builds on: because every subsystem
// draws only from its own stream, interleaving subsystems in any order
// replays a scenario bit-identically from the seed.
type SimulationKey struct {
	// Seed is the run's root seed.
	Seed uint64
	// Subsystem names the consumer of the stream.
	Subsystem string
	// Entity distinguishes instances within a subsystem (0 for the
	// subsystem's own stream).
	Entity uint64
}

// Stream returns the stream the key selects. Equal keys always return
// streams producing identical sequences; keys differing in any field
// select statistically independent sequences.
func (k SimulationKey) Stream() *Stream {
	h := fnv.New64a()
	h.Write([]byte(k.Subsystem))
	sub := h.Sum64()
	seed := k.Seed ^ (sub*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	seed ^= k.Entity*0xd1b54a32d192ed03 + 0x8cb92ba72f3d8dd7
	return New(seed, sub^k.Entity)
}

// Partition fans one root seed out into per-subsystem streams. It is
// the SimulationKey convenience layer: a Partition is just the seed,
// and every accessor is a pure function, so a Partition may be shared
// (and copied) freely — only the Streams it hands out carry state.
type Partition struct {
	seed uint64
}

// NewPartition returns a partition rooted at seed.
func NewPartition(seed uint64) Partition { return Partition{seed: seed} }

// Subsystem returns the named subsystem's own stream — the Entity-0
// stream of SimulationKey{Seed, name, 0}.
func (p Partition) Subsystem(name string) *Stream {
	return SimulationKey{Seed: p.seed, Subsystem: name}.Stream()
}

// Entity returns the stream for one entity (node, rank, tenant …)
// within a subsystem.
func (p Partition) Entity(subsystem string, id uint64) *Stream {
	return SimulationKey{Seed: p.seed, Subsystem: subsystem, Entity: id}.Stream()
}
