package main

import (
	"fmt"
	"slices"
	"time"
)

// layerStats accumulates the per-layer picture of a traced run: span
// durations and self times pooled over the traced rounds, exact counts
// per round, and the allocator's activity over the untraced rounds.
type layerStats struct {
	spec spec

	dur, self [spNameCount]durSamples
	bytes     [spNameCount]int64

	writeNs, endIterNs, deliveryNs durSamples
	basePutNs                      durSamples // base-store Puts made for a data object

	// One value per round of the kind named.
	innerPutCalls, innerPutBytes []float64 // traced rounds
	listMs, restoreSelfS         []float64 // traced rounds
	serverBusy                   []float64 // untraced rounds
	allocsPerBlock, allocPerByte []float64 // untraced rounds
	gcPauseMs                    []float64 // untraced rounds
	heapPeakMB                   float64

	skipped, lost       int64
	published, received int64
	last                *roundResult // latest round's exact counts
}

func newLayerStats(s spec) *layerStats { return &layerStats{spec: s} }

// absorb folds one timed round into the statistics.
func (ls *layerStats) absorb(r *roundResult) {
	ls.last = r
	ls.skipped += r.skipped
	ls.lost += r.lost
	ls.published += r.published
	ls.received += r.received
	if r.des != nil {
		return
	}
	if !r.traced {
		ls.serverBusy = append(ls.serverBusy, r.serverBusy)
		ls.allocsPerBlock = append(ls.allocsPerBlock, float64(r.mem.mallocs)/float64(r.blocks))
		ls.allocPerByte = append(ls.allocPerByte, float64(r.mem.allocBytes)/float64(r.userBytes))
		ls.gcPauseMs = append(ls.gcPauseMs, float64(r.mem.gcPauseNs)/1e6)
		ls.heapPeakMB = max(ls.heapPeakMB, r.heapInuseMB)
		return
	}
	tr := r.trace
	spans := tr.rec.snapshot()
	self := selfTimes(spans)
	var calls, putBytes, listNs, restoreSelf int64
	for i, s := range spans {
		ls.dur[s.name] = append(ls.dur[s.name], s.dur())
		ls.self[s.name] = append(ls.self[s.name], self[i])
		ls.bytes[s.name] += s.bytes
		switch s.name {
		case spInnerPut:
			calls++
			putBytes += s.bytes
			if s.parent >= 0 && spans[s.parent].name == spPut {
				ls.basePutNs = append(ls.basePutNs, s.dur())
			}
		case spList:
			listNs += s.dur()
		case spRestore:
			restoreSelf += self[i]
		}
	}
	ls.innerPutCalls = append(ls.innerPutCalls, float64(calls))
	ls.innerPutBytes = append(ls.innerPutBytes, float64(putBytes))
	ls.listMs = append(ls.listMs, float64(listNs)/1e6)
	ls.restoreSelfS = append(ls.restoreSelfS, float64(restoreSelf)/1e9)
	ls.writeNs = append(ls.writeNs, tr.writeNs...)
	ls.endIterNs = append(ls.endIterNs, tr.endIterNs...)
	ls.deliveryNs = append(ls.deliveryNs, tr.deliveryLatencies()...)
}

// metrics returns every per-layer metric that comes from the rounds
// (kernels and the overhead are added by the caller).
func (ls *layerStats) metrics(phaseAll durSamples) map[string]float64 {
	m := map[string]float64{}
	ms := func(n spanName) float64 { return ls.dur[n].p50(1e6) }
	slices.Sort(ls.writeNs) // read twice below; sorted once here
	m["core.write_us_p50"] = ls.writeNs.p50(1e3)
	m["core.write_us_p99"], _ = ls.writeNs.tail(99, 1e3)
	m["core.end_iteration_us_p50"] = ls.endIterNs.p50(1e3)
	m["core.phase_us_p99"], _ = phaseAll.tail(99, 1e3)
	m["core.server_busy_frac"] = median(ls.serverBusy)
	m["core.skipped_writes"] = float64(ls.skipped)

	m["cluster.aggregate_ms_p50"] = ms(spAggregate)
	m["cluster.encode_ms_p50"] = ms(spEncode)
	m["cluster.manifest_ms_p50"] = ms(spManifest)
	m["cluster.drain_ms_p50"] = ms(spDrain)
	if r := ls.last; r != nil {
		m["cluster.batches_forwarded"] = float64(r.counts.batchesForwarded)
		m["cluster.bytes_forwarded"] = float64(r.counts.bytesForwarded)
		m["cluster.objects_written"] = float64(r.counts.objectsWritten)
		m["broker.grants"] = float64(r.grants)
		m["chunk.chunks_stored"] = float64(r.reduce.chunksStored)
		m["chunk.chunks_deduped"] = float64(r.reduce.chunksDeduped)
		if all := r.reduce.chunksStored + r.reduce.chunksDeduped; all > 0 {
			m["chunk.dedup_hit_frac"] = float64(r.reduce.chunksDeduped) / float64(all)
		}
		if r.reduce.rawBytes > 0 {
			m["compress.encoded_frac"] = float64(r.reduce.encodedBytes) / float64(r.reduce.rawBytes)
		}
	}
	m["cluster.blocks_lost"] = float64(ls.lost)

	m["broker.acquire_us_p50"] = ls.dur[spAcquire].p50(1e3)
	if ls.published > 0 {
		m["stream.delivered_frac"] = float64(ls.received) / float64(ls.published)
	}
	m["stream.delivery_us_p50"] = ls.deliveryNs.p50(1e3)

	m["storage.put_ms_p50"] = ms(spPut)
	var putNs int64
	for _, d := range ls.dur[spPut] {
		putNs += d
	}
	if putNs > 0 {
		m["storage.put_MBps"] = float64(ls.bytes[spPut]) / 1e6 / (float64(putNs) / 1e9)
	}
	m["storage.reduce_self_ms_p50"] = ls.self[spPut].p50(1e6)
	m["storage.inner_put_calls"] = median(ls.innerPutCalls)
	m["storage.inner_put_bytes"] = median(ls.innerPutBytes)
	if ls.spec.store != storeMemory {
		m["sdf.put_ms_p50"] = ls.basePutNs.p50(1e6)
	}

	m["storage.get_ms_p50"] = ms(spGet)
	m["storage.list_ms"] = median(ls.listMs)
	m["cluster.restore_self_s"] = median(ls.restoreSelfS)

	m["mem.allocs_per_block"] = median(ls.allocsPerBlock)
	m["mem.alloc_bytes_per_user_byte"] = median(ls.allocPerByte)
	m["mem.heap_peak_MB"] = ls.heapPeakMB
	m["mem.gc_pause_ms"] = median(ls.gcPauseMs)
	return m
}

// budgetRow is one line of the "where a byte's microseconds go" table:
// a stage of an iteration's path from the last EndIteration to a stored
// manifest, as the median time one root spends in it.
type budgetRow struct {
	Stage string  `json:"stage"`
	Layer string  `json:"layer"`
	P50Ms float64 `json:"p50_ms"`
	UsPer float64 `json:"us_per_user_MiB"`
}

// budget lays the traced stages out in path order. us_per_user_MiB
// divides a stage's median by the user bytes one root stores per
// iteration (one client writes per iteration, for the client phase), so
// workloads of different block sizes compare.
func (ls *layerStats) budget() []budgetRow {
	s := ls.spec
	const mib = 1 << 20
	perRoot := float64(s.blocksPerIteration()*s.blockBytes) / treeRoots / mib
	perClient := float64(s.vars*s.blockBytes) / mib
	rowOf := func(stage, layer string, samples durSamples, userMiB float64) budgetRow {
		p50 := samples.p50(1e6)
		return budgetRow{Stage: stage, Layer: layer, P50Ms: p50, UsPer: p50 * 1e3 / userMiB}
	}
	row := func(stage, layer string, samples durSamples) budgetRow {
		return rowOf(stage, layer, samples, perRoot)
	}
	base := "sdf"
	if s.store == storeMemory {
		base = "memory"
	}
	var innerPerPut durSamples // base-store time inside one data Put
	for i, d := range ls.dur[spPut] {
		innerPerPut = append(innerPerPut, d-ls.self[spPut][i])
	}
	return []budgetRow{
		rowOf("client phase (writes + EndIteration, one client)", "shm, core", ls.dur[spPhase], perClient),
		row("last EndIteration → root hook entry", "core server, forwarder, tree, broker", ls.dur[spAggregate]),
		row("root hooks", "cluster hooks, stream", ls.dur[spHooks]),
		row("hook exit → data Put entry", "cluster batch encoding", ls.dur[spEncode]),
		row("data Put, reduce layer's own time", "compress / chunk", ls.self[spPut]),
		row("data Put, base store time", base, innerPerPut),
		row("data Put exit → manifest stored", "cluster manifest, store", ls.dur[spManifest]),
		row("last EndIteration → last manifest stored", "whole dedicated side", ls.dur[spDrain]),
	}
}

// minTimedSpan is the shortest interval the kernel pass times at once.
const minTimedSpan = 50 * time.Microsecond

// runKernels runs the single-goroutine kernel pass: every kernel that
// applies to the workload gets an equal slice of budget seconds (at
// least one call), and reports its median per-call figure. Kernels that
// do not apply read 0.
func runKernels(s spec, p *payloads, seed uint64, dir string, budget float64) (map[string]float64, error) {
	out := map[string]float64{}
	var todo []kernel
	for _, k := range kernels() {
		out[k.name] = 0
		if k.applies(s) {
			todo = append(todo, k)
		}
	}
	slice := time.Duration(budget / float64(max(len(todo), 1)) * float64(time.Second))
	for _, k := range todo {
		op, cleanup, err := k.prepare(s, p, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		if _, err := op(); err != nil { // warm-up, untimed
			cleanup()
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		// Calls far shorter than a clock read are timed in batches.
		reps := 1
		t0 := time.Now()
		if _, err := op(); err != nil {
			cleanup()
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		if once := time.Since(t0); once < minTimedSpan {
			reps = int(minTimedSpan/max(once, 1)) + 1
		}
		var perCall []float64 // ns per unit of work, or bytes per ns
		for start := time.Now(); len(perCall) == 0 || time.Since(start) < slice; {
			var bytes int
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				n, err := op()
				if err != nil {
					cleanup()
					return nil, fmt.Errorf("kernel %s: %w", k.name, err)
				}
				bytes += n
			}
			ns := float64(time.Since(t0))
			if k.unit == "MB/s" {
				perCall = append(perCall, float64(bytes)/ns) // bytes/ns
			} else {
				perCall = append(perCall, ns/float64(reps*max(k.batch, 1)))
			}
		}
		cleanup()
		med := median(perCall)
		switch k.unit {
		case "MB/s":
			out[k.name] = med * 1e3 // bytes/ns → MB/s
		case "ns":
			out[k.name] = med
		case "us":
			out[k.name] = med / 1e3
		case "ms":
			out[k.name] = med / 1e6
		case "s":
			out[k.name] = med / 1e9
		}
	}
	return out, nil
}
