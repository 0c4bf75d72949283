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
// methods: every other CostModel method is the inner model's.
type reducing struct {
	CostModel
	write, read TransferCost
}

// Reduce returns inner with a reduction layer on its five transfer
// methods. A write charges the layer's CPU and then moves the forwarded
// volume inward; a read moves the forwarded volume back and then
// charges the CPU. The continuation methods charge the CPU to the
// caller's own timeline — the dedicated core's; the async ones have no
// caller to charge, so a transfer that costs CPU runs in a process of
// its own on the inner model's engine.
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
	if cpu <= 0 {
		return r.CostModel.WriteAsync(target, fwd, pat)
	}
	return r.spawn("reduce-write", func(p *des.Proc) {
		p.Wait(cpu)
		p.Await(r.CostModel.WriteAsync(target, fwd, pat))
	})
}

func (r *reducing) Read(target int, bytes float64, pat Pattern, k func()) {
	cpu, fwd := r.read(bytes)
	r.CostModel.Read(target, fwd, pat, func() { r.charge(cpu, k) })
}

func (r *reducing) ReadAsync(target int, bytes float64, pat Pattern) *des.Future {
	cpu, fwd := r.read(bytes)
	if cpu <= 0 {
		return r.CostModel.ReadAsync(target, fwd, pat)
	}
	return r.spawn("reduce-read", func(p *des.Proc) {
		p.Await(r.CostModel.ReadAsync(target, fwd, pat))
		p.Wait(cpu)
	})
}

// spawn runs body in its own process and returns a future completed
// when it returns.
func (r *reducing) spawn(name string, body func(p *des.Proc)) *des.Future {
	eng := r.Engine()
	f := eng.NewFuture()
	eng.Spawn(name, func(p *des.Proc) {
		body(p)
		f.Complete()
	})
	return f
}
