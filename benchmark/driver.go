package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// drivers is the number of load-generator goroutines: one per core of
// the 2-core sandbox the workloads were sized on. It is fixed, not read
// from the machine, so the offered load is the same everywhere.
const drivers = 2

// roundResult is everything one round measured and checked.
type roundResult struct {
	traced bool

	writeWall   time.Duration // first Write → last iteration stored and every tenant finished
	restoreWall time.Duration // cluster.Restore of everything written (verification excluded)

	userBytes   int64 // bytes handed to Write
	blocks      int64 // Write calls attempted
	coreIters   int64 // client core-iterations
	storedBytes int64 // bytes left on storage

	phaseNs durSamples // one sample per client per iteration: its writes + EndIteration

	skipped      int64 // writes that returned ErrSkipped
	writeErrors  int64 // writes that returned any other error
	lost         int64 // Stats().BlocksLost
	restored     int64 // blocks Restore handed back
	exact        int64 // of those, byte-equal to the payload written
	programErrs  []string
	conservation int64 // |attempted - restored - skipped - lost|

	counts      tenantCounts
	reduce      reduceCounts
	published   int64
	received    int64
	grants      int64
	serverBusy  float64 // Σ ServerBusy / (nodes × write wall)
	mem         memDelta
	heapInuseMB float64

	trace *roundTrace // traced rounds only

	des map[desStrategy]desOutcome // des-kraken only
	// desWall is the wall time of the four strategy runs; desRestartWall
	// that of the restart-read run.
	desWall, desRestartWall time.Duration
}

// failed counts every operation of the round that did not end as it
// should: writes skipped or refused, blocks lost or not restored
// byte-exact, errors the program reported, and conservation violations.
func (r *roundResult) failed() int64 {
	if r.des != nil {
		return int64(len(r.programErrs))
	}
	notExact := r.blocks - r.skipped - r.writeErrors - r.lost - r.exact
	if notExact < 0 {
		notExact = -notExact // more came back than went in
	}
	return r.skipped + r.writeErrors + r.lost + notExact + int64(len(r.programErrs)) + r.conservation
}

// memDelta is the allocator's activity over a round's write phase.
type memDelta struct {
	mallocs, allocBytes uint64
	gcPauseNs           uint64
}

// driverOut is what one driver goroutine measured; merged after the
// round so the timed loop shares nothing.
type driverOut struct {
	phaseNs, writeNs, endIterNs durSamples
	skipped, writeErrors        int64
	firstErr                    error
}

// drive is one closed-loop driver: it owns nodes [n0, n1) of a tenant
// and, for every iteration, lets each of their clients write all its
// variables and end the iteration. It starts iteration i only after
// iteration i-window is stored, and returns once the last is.
func drive(h *tenantHandle, s spec, p *payloads, n0, n1 int, tr *roundTrace, out *driverOut) {
	names := make([]string, s.vars)
	for v := range names {
		names[v] = varName(h.id, v)
	}
	for it := 0; it < s.iterations; it++ {
		if it >= window {
			h.waitIteration(it - window)
		}
		for n := n0; n < n1; n++ {
			for c := 0; c < s.clients; c++ {
				ci := n*s.clients + c
				t0 := time.Now()
				for v := 0; v < s.vars; v++ {
					var err error
					if tr != nil {
						w0 := time.Now()
						err = h.write(ci, names[v], it, p.block(h.id, it, n, c, v))
						out.writeNs = append(out.writeNs, int64(time.Since(w0)))
					} else {
						err = h.write(ci, names[v], it, p.block(h.id, it, n, c, v))
					}
					if err != nil {
						if isSkipped(err) {
							out.skipped++
						} else {
							out.writeErrors++
							if out.firstErr == nil {
								out.firstErr = err
							}
						}
					}
				}
				if tr != nil {
					e0 := time.Now()
					h.endIteration(ci, it)
					out.endIterNs = append(out.endIterNs, int64(time.Since(e0)))
				} else {
					h.endIteration(ci, it)
				}
				t1 := time.Now()
				out.phaseNs = append(out.phaseNs, int64(t1.Sub(t0)))
				if tr != nil {
					end := int64(t1.Sub(tr.rec.epoch))
					tr.lastEnd[h.id][it*s.nodes+n] = end
					tr.rec.add(spPhase, h.id, it, int64(t0.Sub(tr.rec.epoch)), end,
						int64(s.vars*s.blockBytes))
				}
			}
		}
	}
	h.waitIteration(s.iterations - 1)
}

// runRound runs one round of a runtime workload: a fresh store and
// service, the closed-loop write phase, the restore, and — outside both
// timers — every correctness check.
func runRound(s spec, p *payloads, storeRoot string, round int, traced bool) (*roundResult, error) {
	if s.des {
		return runDESRound(s, p)
	}
	res := &roundResult{
		traced:    traced,
		userBytes: s.userBytesPerRound(),
		blocks:    s.blocksPerRound(),
		coreIters: s.coreItersPerRound(),
	}
	dir := ""
	if s.store != storeMemory {
		dir = filepath.Join(storeRoot, fmt.Sprintf("round%03d", round))
		defer os.RemoveAll(dir)
	}
	var tr *roundTrace
	if traced {
		tr = newRoundTrace(s)
		res.trace = tr
	}
	sys, err := newSystem(s, dir, tr)
	if err != nil {
		return nil, err
	}
	perTenant := drivers / s.tenants
	outs := make([]*driverOut, 0, drivers)
	phases := s.iterations * s.nodes * s.clients / perTenant
	for range s.tenants * perTenant {
		o := &driverOut{phaseNs: make(durSamples, 0, phases)}
		if traced {
			o.writeNs = make(durSamples, 0, phases*s.vars)
			o.endIterNs = make(durSamples, 0, phases)
		}
		outs = append(outs, o)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	start := time.Now()
	for t, h := range sys.tenants {
		for d := 0; d < perTenant; d++ {
			n0, n1 := d*s.nodes/perTenant, (d+1)*s.nodes/perTenant
			wg.Add(1)
			go func(h *tenantHandle, o *driverOut) {
				defer wg.Done()
				drive(h, s, p, n0, n1, tr, o)
			}(h, outs[t*perTenant+d])
		}
	}
	wg.Wait()
	var finishErr error
	for _, h := range sys.tenants {
		if err := h.finish(); err != nil && finishErr == nil {
			finishErr = err
		}
	}
	res.writeWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.mem = memDelta{
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	res.heapInuseMB = float64(m1.HeapInuse) / 1e6

	if finishErr != nil {
		res.programErrs = append(res.programErrs, "finish: "+finishErr.Error())
	}
	for _, o := range outs {
		res.phaseNs = append(res.phaseNs, o.phaseNs...)
		res.skipped += o.skipped
		res.writeErrors += o.writeErrors
		if o.firstErr != nil {
			res.programErrs = append(res.programErrs, "write: "+o.firstErr.Error())
		}
		if traced {
			tr.writeNs = append(tr.writeNs, o.writeNs...)
			tr.endIterNs = append(tr.endIterNs, o.endIterNs...)
		}
	}
	var busy time.Duration
	for _, h := range sys.tenants {
		c := h.counts()
		res.counts.add(c)
		busy += c.serverBusy
		for _, e := range c.errs {
			res.programErrs = append(res.programErrs, e.Error())
		}
		if c.iterationsCompleted != int64(s.iterations) || c.partialIterations != 0 {
			res.programErrs = append(res.programErrs, fmt.Sprintf(
				"tenant %d completed %d of %d iterations, %d of them partial",
				h.id, c.iterationsCompleted, s.iterations, c.partialIterations))
		}
	}
	res.lost = res.counts.blocksLost
	res.serverBusy = busy.Seconds() / (float64(s.tenants*s.nodes) * res.writeWall.Seconds())
	if err := sys.close(); err != nil {
		res.programErrs = append(res.programErrs, "service close: "+err.Error())
	}
	res.published, res.received = sys.streamCounts()
	res.grants = sys.brokerGrants()
	res.reduce = sys.stack.reduceCounts()
	if res.storedBytes, err = sys.stack.storedBytes(); err != nil {
		return nil, err
	}
	if traced {
		tr.derive(sys.subtreeOf)
	}

	// Restore everything the round wrote; verify outside the timer.
	for t := range sys.tenants {
		varIndex := make(map[string]int, s.vars)
		for v := 0; v < s.vars; v++ {
			varIndex[varName(t, v)] = v
		}
		var rec *recorder
		if traced {
			rec = tr.rec
		}
		wall, problems, err := restoreJob(sys.stack.reader, jobName(t), rec, t, func(b restoredBlock) {
			res.restored++
			v, ok := varIndex[b.variable]
			if !ok || b.iter < 0 || b.iter >= s.iterations || b.node < 0 || b.node >= s.nodes ||
				b.source < 0 || b.source >= s.clients {
				return
			}
			if bytes.Equal(b.data, p.block(t, b.iter, b.node, b.source, v)) {
				res.exact++
			}
		})
		res.restoreWall += wall
		if err != nil {
			res.programErrs = append(res.programErrs, "restore: "+err.Error())
		}
		for _, e := range problems {
			res.programErrs = append(res.programErrs, "restore: "+e.Error())
		}
	}
	// Conservation: every block attempted was restored, skipped or lost.
	res.conservation = res.blocks - res.restored - res.skipped - res.writeErrors - res.lost
	if res.conservation < 0 {
		res.conservation = -res.conservation
	}
	return res, nil
}

// add accumulates another tenant's counts.
func (c *tenantCounts) add(o tenantCounts) {
	c.batchesForwarded += o.batchesForwarded
	c.bytesForwarded += o.bytesForwarded
	c.objectsWritten += o.objectsWritten
	c.blocksLost += o.blocksLost
	c.iterationsCompleted += o.iterationsCompleted
	c.partialIterations += o.partialIterations
	c.serverBusy += o.serverBusy
}

// desRestartReps is how many restart reads one des-kraken round times:
// enough that the batch takes a few tenths of a second, because a
// shorter timing is at the mercy of a single scheduling hiccup.
const desRestartReps = 48

// runDESRound runs the des-kraken round: the four strategy runs, timed
// together, then the restart reads of the tree-mode checkpoint.
func runDESRound(s spec, p *payloads) (*roundResult, error) {
	res := &roundResult{des: map[desStrategy]desOutcome{}}
	seed := p.seed
	start := time.Now()
	for _, st := range desWriteStrategies {
		out, err := desRun(s, seed, st)
		if err != nil {
			return nil, fmt.Errorf("des %s: %w", st, err)
		}
		res.des[st] = out
		res.coreIters += out.coreIters
		res.blocks += out.blocks
		res.userBytes += int64(out.userBytes)
	}
	res.desWall = time.Since(start)
	// One restart read takes milliseconds; a batch of them is timed.
	start = time.Now()
	var restart desOutcome
	for i := 0; i < desRestartReps; i++ {
		out, err := desRun(s, seed, desRestart)
		if err != nil {
			return nil, fmt.Errorf("des restart: %w", err)
		}
		if i > 0 && out != restart {
			res.programErrs = append(res.programErrs, fmt.Sprintf(
				"restart read %d gave %+v, the first %+v", i, out, restart))
		}
		restart = out
	}
	res.desRestartWall = time.Since(start)
	res.des[desRestart] = restart
	// The paper's ordering of application run times.
	d, f, c := res.des[desDamaris].totalTime, res.des[desFPP].totalTime, res.des[desCollective].totalTime
	if s.desOrdered && !(d < f && f < c) {
		res.programErrs = append(res.programErrs,
			fmt.Sprintf("run-time ordering violated: damaris %.3f, file-per-process %.3f, collective %.3f", d, f, c))
	}
	return res, nil
}
