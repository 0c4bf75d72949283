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
// charges the CPU. The blocking methods wait on the calling proc — the
// dedicated core; the async ones have no proc, so a transfer that costs
// CPU runs in a process of its own on the inner model's engine.
func Reduce(inner CostModel, write, read TransferCost) CostModel {
	return &reducing{CostModel: inner, write: write, read: read}
}

// chargeWrite waits the write-side CPU on p and returns the volume to
// forward.
func (r *reducing) chargeWrite(p *des.Proc, bytes float64) float64 {
	cpu, fwd := r.write(bytes)
	if cpu > 0 {
		p.Wait(cpu)
	}
	return fwd
}

func (r *reducing) Write(p *des.Proc, target int, bytes float64, pat Pattern) {
	r.CostModel.Write(p, target, r.chargeWrite(p, bytes), pat)
}

func (r *reducing) WriteChunk(p *des.Proc, target int, bytes float64, pat Pattern) {
	r.CostModel.WriteChunk(p, target, r.chargeWrite(p, bytes), pat)
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

func (r *reducing) Read(p *des.Proc, target int, bytes float64, pat Pattern) {
	cpu, fwd := r.read(bytes)
	r.CostModel.Read(p, target, fwd, pat)
	if cpu > 0 {
		p.Wait(cpu)
	}
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
