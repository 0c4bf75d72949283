package storage

import "repro/internal/des"

// TransferCost prices one direction of a reduction layer on the cost
// face: given the raw volume of a transfer, the dedicated-core CPU
// seconds the layer spends on it and the volume it forwards to the
// model underneath (§IV.D: spare core time traded against NIC and PFS
// bytes). It is called exactly once per transfer, so a layer may keep
// its ledger in it.
type TransferCost func(bytes float64) (cpu, forwarded float64)

// reducing is the one implementation of a reduction layer's transfer
// methods: every other CostModel method is the inner model's. Its async
// transfers are actors indexed in transfers, carved from blocks of 64
// and kept for the run (their futures are handed out), stepped by one
// event kind.
type reducing struct {
	CostModel
	write, read TransferCost
	transfers   []*transfer
	spare       []transfer
	step        des.Kind
}

// Reduce returns inner with a reduction layer on its five transfer
// methods. A write charges the layer's CPU and then moves the forwarded
// volume inward; a read moves the forwarded volume back and then
// charges the CPU. The continuation methods charge the CPU to the
// caller's own timeline — the dedicated core's; the async ones have no
// caller to charge, so a transfer that costs CPU starts in an event of
// its own on the inner model's engine and completes its future when
// both the CPU and the inner transfer are done.
func Reduce(inner CostModel, write, read TransferCost) CostModel {
	return &reducing{CostModel: inner, write: write, read: read}
}

// charge runs k after cpu seconds of layer CPU (inline when there are
// none).
func (r *reducing) charge(cpu float64, k func()) {
	if cpu > 0 {
		r.Engine().Wait(cpu, k)
		return
	}
	k()
}

func (r *reducing) Write(target int, bytes float64, pat Pattern, k func()) {
	cpu, fwd := r.write(bytes)
	r.charge(cpu, func() { r.CostModel.Write(target, fwd, pat, k) })
}

func (r *reducing) WriteChunk(target int, bytes float64, pat Pattern, k func()) {
	cpu, fwd := r.write(bytes)
	r.charge(cpu, func() { r.CostModel.WriteChunk(target, fwd, pat, k) })
}

func (r *reducing) WriteAsync(target int, bytes float64, pat Pattern) *des.Future {
	cpu, fwd := r.write(bytes)
	return r.async(transfer{r: r, target: target, fwd: fwd, cpu: cpu, pat: pat, write: true})
}

func (r *reducing) Read(target int, bytes float64, pat Pattern, k func()) {
	cpu, fwd := r.read(bytes)
	r.CostModel.Read(target, fwd, pat, func() { r.charge(cpu, k) })
}

func (r *reducing) ReadAsync(target int, bytes float64, pat Pattern) *des.Future {
	cpu, fwd := r.read(bytes)
	return r.async(transfer{r: r, target: target, fwd: fwd, cpu: cpu, pat: pat})
}

// transfer is one async transfer through the layer as a continuation
// state machine: an event of its own, then the CPU and the inner
// transfer — in that order for a write, the other way round for a read
// — then done completes. Each step is the layer's step kind for id.
type transfer struct {
	r        *reducing
	target   int
	fwd, cpu float64
	pat      Pattern
	write    bool
	stage    int
	id       int32
	done     des.Future
}

// async runs t, or just its inner transfer when it costs no CPU.
func (r *reducing) async(t transfer) *des.Future {
	if t.cpu <= 0 {
		return t.inner()
	}
	eng := r.Engine()
	if r.step == 0 {
		r.step = eng.Handle(func(i int32) { r.transfers[i].next() })
	}
	if len(r.spare) == 0 {
		r.spare = make([]transfer, 64)
	}
	p := &r.spare[0]
	r.spare = r.spare[1:]
	t.id, t.done = int32(len(r.transfers)), *eng.NewFuture()
	*p = t
	r.transfers = append(r.transfers, p)
	eng.Post(0, r.step, p.id)
	return &p.done
}

func (t *transfer) inner() *des.Future {
	if t.write {
		return t.r.CostModel.WriteAsync(t.target, t.fwd, t.pat)
	}
	return t.r.CostModel.ReadAsync(t.target, t.fwd, t.pat)
}

func (t *transfer) next() {
	switch t.stage++; {
	case t.stage == 3:
		t.done.Complete()
	case t.write == (t.stage == 1): // a write's first step, a read's second
		t.r.Engine().Post(t.cpu, t.r.step, t.id)
	default:
		t.inner().ThenPost(t.r.step, t.id)
	}
}
