package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// storeKind names the storage stack a workload writes through.
type storeKind string

const (
	storePlain  storeKind = "sdf"        // storage.NewSDF, no wrapper
	storeCodec  storeKind = "sdf+codec"  // storage.NewCompressing(SDF, adaptive)
	storeDedup  storeKind = "sdf+dedup"  // chunk.New(SDF)
	storeMemory storeKind = "memory"     // storage.NewMemory
	storeNone   storeKind = "none (DES)" // the DES face stores nothing real
)

// contentKind names how a workload's block contents are generated.
type contentKind int

const (
	contentSmooth  contentKind = iota // smooth float64 fields
	contentRewrite                    // incompressible bytes; each iteration rewrites a quarter of the blocks
)

// spec is one workload: the shape of the simulated application, what it
// writes and through which storage stack. Every size is fixed work per
// round; --seconds only decides how many rounds are measured.
type spec struct {
	name string
	why  string
	des  bool // the DES face (iostrat.Run), not the runtime cluster

	tenants    int // concurrent tenants, each with its own driver set
	nodes      int // nodes per tenant
	clients    int // simulation clients per node
	vars       int // variables each client writes per iteration
	blockBytes int // bytes per variable block
	iterations int // iterations per round
	sets       int // distinct iteration contents, cycled (0 = one per iteration)
	content    contentKind
	store      storeKind
	shared     bool // shared sharded broker and stream subscriber (tenants-small)

	desCores   int  // des-kraken: simulated cores
	desIters   int  // des-kraken: output phases per strategy run
	desOrdered bool // des-kraken: check Damaris < file-per-process < collective
}

// Aggregation-tree shape shared by every runtime workload.
const (
	treeFanout = 2
	treeRoots  = 2
	// window is how far a driver may run ahead of the dedicated side: it
	// writes iteration i only after iteration i-window is stored.
	window = 2
	// shmIterations sizes each node's shared-memory segment, in
	// iterations of that node's output, so a healthy run never skips.
	shmIterations = 4
)

// specs returns the five workloads at full scale. Iteration counts are
// frozen: they were tuned once so a round takes about a second on the
// 2-core sandbox, and must stay put so commits stay comparable.
func specs() []spec {
	ckpt := spec{tenants: 1, nodes: 16, clients: 2, vars: 4, blockBytes: 128 << 10}
	plain, codec, dedup := ckpt, ckpt, ckpt

	plain.name, plain.store, plain.content = "ckpt-plain", storePlain, contentSmooth
	plain.iterations, plain.sets = 24, 4
	plain.why = "shm/core/cluster/sdf do all the work and compress/chunk none: a saved copy shows here, a reduce-layer change must not"

	codec.name, codec.store, codec.content = "ckpt-codec", storeCodec, contentSmooth
	codec.iterations = 4
	codec.why = "the adaptive codec pipeline is most of an iteration, so compress/storage.Compressing changes move it and nothing else does"

	dedup.name, dedup.store, dedup.content = "ckpt-dedup", storeDedup, contentRewrite
	dedup.iterations = 4
	dedup.why = "isolates chunk.Split/Sum, the chunk store's mutex and one-file-per-chunk in sdf; restore through recipes is the read-beside-write case"

	small := spec{
		name: "tenants-small", store: storeMemory, content: contentSmooth, shared: true,
		tenants: 2, nodes: 16, clients: 2, vars: 16, blockBytes: 512,
		iterations: 160, sets: 4,
		why: "about 1000 tiny blocks per iteration: per-block costs (queue, index, allocations, c.mu, mailboxes, broker, manifests) dominate, storage does almost nothing",
	}
	kraken := spec{
		name: "des-kraken", des: true, store: storeNone, desCores: 9216, desIters: 2, desOrdered: true,
		why: "every paper-scale experiment stands on the DES engine and no runtime workload touches it; runtime-face changes must not move it",
	}
	return []spec{plain, codec, dedup, small, kraken}
}

// specByName returns the named full-scale workload.
func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// toy shrinks a workload to unit-test scale while keeping its shape
// (same stack, content kind, tenants and tree).
func (s spec) toy() spec {
	if s.des {
		// The paper's run-time ordering only emerges at scale: on a few
		// nodes file-per-process beats giving a core per node away.
		s.desCores, s.desIters, s.desOrdered = 96, 1, false
		return s
	}
	s.nodes = 4
	s.iterations = 4
	if s.sets > s.iterations {
		s.sets = s.iterations
	}
	if s.blockBytes > 4096 {
		s.blockBytes = 4096
	}
	return s
}

// blocksPerIteration is the number of blocks one tenant writes per iteration.
func (s spec) blocksPerIteration() int { return s.nodes * s.clients * s.vars }

// userBytesPerRound is what all tenants hand to Write in one round.
func (s spec) userBytesPerRound() int64 {
	return int64(s.tenants) * int64(s.iterations) * int64(s.blocksPerIteration()) * int64(s.blockBytes)
}

// blocksPerRound is the number of Write calls in one round.
func (s spec) blocksPerRound() int64 {
	return int64(s.tenants) * int64(s.iterations) * int64(s.blocksPerIteration())
}

// coreItersPerRound counts client core-iterations in one round.
func (s spec) coreItersPerRound() int64 {
	return int64(s.tenants) * int64(s.iterations) * int64(s.nodes*s.clients)
}

// varName is the name of a tenant's v-th variable. Tenants use distinct
// prefixes so their blocks can never be confused in a shared store.
func varName(tenant, v int) string { return fmt.Sprintf("t%dv%02d", tenant, v) }

// jobName is the object-name prefix of a tenant's run.
func jobName(tenant int) string { return fmt.Sprintf("bench-t%d", tenant) }

// payloads holds every byte the generator will hand to Write,
// pre-generated during set-up so the timed loop spends its CPU only on
// the calls into the program.
type payloads struct {
	spec spec
	seed uint64
	// blocks[tenant][set][block] with block = (node*clients+client)*vars+v.
	// Sets may share block buffers (the rewrite content keeps three
	// quarters of each iteration bit-identical to the one before).
	blocks      [][][][]byte
	fingerprint uint64
}

// setFor maps an iteration to its content set.
func (p *payloads) setFor(it int) int { return it % len(p.blocks[0]) }

// block returns the bytes client (node, client) writes for variable v of
// iteration it.
func (p *payloads) block(tenant, it, node, client, v int) []byte {
	s := p.spec
	return p.blocks[tenant][p.setFor(it)][(node*s.clients+client)*s.vars+v]
}

// generate builds a workload's payloads from the seed: the same seed
// gives the same bytes, a different seed different ones.
func generate(s spec, seed uint64) *payloads {
	p := &payloads{spec: s, seed: seed}
	if s.des {
		return p
	}
	sets := s.sets
	if sets <= 0 {
		sets = s.iterations
	}
	nb := s.blocksPerIteration()
	fp := uint64(0xcbf29ce484222325) ^ seed
	mix := func(b []byte) {
		for i := 0; i+8 <= len(b); i += 8 {
			fp = (fp ^ binary.LittleEndian.Uint64(b[i:])) * 0x100000001b3
		}
	}
	p.blocks = make([][][][]byte, s.tenants)
	for t := range p.blocks {
		p.blocks[t] = make([][][]byte, sets)
		for set := range p.blocks[t] {
			r := newRand(seed, fmt.Sprintf("payload/%s/t%d/set%d", s.name, t, set))
			blocks := make([][]byte, nb)
			fresh := func(i int) {
				blocks[i] = make([]byte, s.blockBytes)
				if s.content == contentSmooth {
					fillSmooth(blocks[i], i, r)
				} else {
					fillRandom(blocks[i], r)
				}
				mix(blocks[i])
			}
			if s.content == contentRewrite && set > 0 {
				// A quarter of the blocks, chosen by the seed, get fresh
				// content; the rest stay bit-identical to the last set.
				copy(blocks, p.blocks[t][set-1])
				for _, i := range r.Perm(nb)[:nb/4] {
					fresh(i)
				}
			} else {
				for i := range blocks {
					fresh(i)
				}
			}
			p.blocks[t][set] = blocks
		}
	}
	p.fingerprint = fp
	return p
}

// fillSmooth writes block i's smooth float64 field: a sine around a
// base, kept to 2^-10 resolution the way a simulation's physical fields
// carry far fewer significant bits than a float64 holds — which is what
// lets the XOR and delta codecs work. Base, amplitude and wavelength
// follow from the block's index alone (three golden-ratio sequences), so
// every seed sees the same population of fields, the adaptive selector
// samples the same kind of field first, and stored_bytes_per_user_byte
// compares across seeds; only the phase is drawn from the seed.
func fillSmooth(b []byte, i int, r *randStream) {
	frac := func(x float64) float64 { return x - math.Floor(x) }
	base := 250 + 100*frac(float64(i)*0.5698402909980532)
	amp := 2 + 8*frac(float64(i)*0.6180339887498949)
	step := 2 * math.Pi / (256 + 256*frac(float64(i)*0.7548776662466927))
	phase := 2 * math.Pi * r.Float64()
	for k := 0; k+8 <= len(b); k += 8 {
		v := base + amp*math.Sin(phase+float64(k/8)*step)
		v = math.Round(v*1024) / 1024
		binary.LittleEndian.PutUint64(b[k:], math.Float64bits(v))
	}
}

// fillRandom writes incompressible pseudorandom bytes.
func fillRandom(b []byte, r *randStream) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	for ; i < len(b); i++ {
		b[i] = byte(r.Uint32())
	}
}
