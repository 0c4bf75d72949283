package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostrat"
	"repro/internal/stats"
	"repro/internal/storage"
)

// e7sWriteDelay is the paced store's per-object write latency on the
// runtime face — the gap a streaming consumer gets to skip.
const e7sWriteDelay = 15 * time.Millisecond

// RunE7S extends E7 with the streaming pipeline of docs/STREAMING.md:
// instead of comparing coupled vs uncoupled simulation speed, it
// compares how *fresh* the data is when the analysis sees it. Two
// couplings on two faces:
//
//   - runtime face: a real cluster publishes every merged iteration
//     through cluster.NewStreamingHook before the store write begins,
//     while a file-then-read consumer waits for the write and reads the
//     object back — wall-clock end-to-end latency per frame;
//   - DES face: the same comparison in virtual time at multi-node scale
//     via iostrat's InSituConfig, plus the slow-consumer policy sweep
//     (drop-oldest / block / sample) pricing §V's "loss of data rather
//     than blocking" against real backpressure.
//
// The headline checks: streaming beats file-then-read for a fast
// consumer on both faces, and a slow consumer under drop-oldest never
// blocks the write path.
func RunE7S(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{ID: "E7S", Title: "streaming in-situ pipeline vs file-then-read (E7 extension)"}

	// ---- Runtime face: wall-clock frame freshness. ----
	const (
		rtNodes   = 4
		rtClients = 2
		rtIters   = 6
	)
	fast, err := runE7SCluster(rtNodes, rtClients, rtIters, fastConsumer())
	if err != nil {
		return Report{}, fmt.Errorf("e7s runtime (fast consumer): %w", err)
	}
	slowPolicy := storage.DropOldest
	if opts.StreamPolicy != "" {
		if err := storage.ValidateSlowPolicy(opts.StreamPolicy); err != nil {
			return Report{}, err
		}
		slowPolicy = storage.SlowPolicy(opts.StreamPolicy)
	}
	slowBuf := 1
	if opts.StreamBuffer > 0 {
		slowBuf = opts.StreamBuffer
	}
	slow, err := runE7SCluster(rtNodes, rtClients, rtIters, slowConsumer(slowPolicy, slowBuf))
	if err != nil {
		return Report{}, fmt.Errorf("e7s runtime (slow consumer): %w", err)
	}

	rt := stats.NewTable(
		fmt.Sprintf("runtime face: end-to-end frame latency, %d nodes × %d clients, %v paced store",
			rtNodes, rtClients, e7sWriteDelay),
		"consumer_path", "mean_latency_ms", "p95_latency_ms", "frames").
		Measured("mean_latency_ms", "p95_latency_ms", "frames")
	rt.AddRow("streaming hook", stats.Mean(fast.streamLat)*1e3,
		stats.Summarize(fast.streamLat).P95*1e3, len(fast.streamLat))
	rt.AddRow("file-then-read", stats.Mean(fast.fileLat)*1e3,
		stats.Summarize(fast.fileLat).P95*1e3, len(fast.fileLat))

	rtSlow := stats.NewTable(
		fmt.Sprintf("runtime face: slow consumer under %s (buffer %d)", slowPolicy, slowBuf),
		"consumer", "frames_received", "frames_dropped", "objects_written", "mean_step_ms").
		Measured("frames_received", "frames_dropped", "mean_step_ms")
	rtSlow.AddRow("fast", len(fast.streamLat), fast.dropped, fast.objects, stats.Mean(fast.fileLat)*1e3)
	rtSlow.AddRow("slow", len(slow.streamLat), slow.dropped, slow.objects, stats.Mean(slow.fileLat)*1e3)

	// ---- DES face: virtual-time freshness at multi-node scale. ----
	cores := opts.Scales[0]
	desCfg := func(mode iostrat.InSituMode, bw float64, pol storage.SlowPolicy, buf int) iostrat.Config {
		cfg := opts.strategyConfig(cores)
		cfg.Fanout = opts.treeFanout()
		cfg.InSitu = iostrat.InSituConfig{
			Mode: mode, AnalysisBandwidth: bw, Policy: pol, Buffer: buf,
		}
		return cfg
	}
	const (
		fastBW = 5e9 // consumer far above production rate
		// slowBW makes one ~1.8 GB root frame cost ~900 s of analysis —
		// three times the CM1 compute interval — so a buffer-1 queue
		// must shed or stall within a handful of iterations.
		slowBW = 2e6
	)
	desStream, err := iostrat.Run(iostrat.Damaris, desCfg(iostrat.InSituStream, fastBW, "", 0))
	if err != nil {
		return Report{}, err
	}
	desFile, err := iostrat.Run(iostrat.Damaris, desCfg(iostrat.InSituFile, fastBW, "", 0))
	if err != nil {
		return Report{}, err
	}
	baseCfg := desCfg(iostrat.InSituOff, fastBW, "", 0)
	baseCfg.InSitu = iostrat.InSituConfig{}
	desBase, err := iostrat.Run(iostrat.Damaris, baseCfg)
	if err != nil {
		return Report{}, err
	}

	des := stats.NewTable(
		fmt.Sprintf("DES face: analysis freshness at %d cores (fast consumer)", cores),
		"coupling", "mean_analysis_latency_s", "frames_analyzed", "bytes_written_gb")
	des.AddRow("stream", desStream.MeanAnalysisLatency(), desStream.FramesAnalyzed,
		stats.GB(desStream.BytesWritten))
	des.AddRow("file-then-read", desFile.MeanAnalysisLatency(), desFile.FramesAnalyzed,
		stats.GB(desFile.BytesWritten))

	policies := []storage.SlowPolicy{storage.DropOldest, storage.Block, storage.Sample}
	if opts.StreamPolicy != "" {
		policies = []storage.SlowPolicy{slowPolicy}
	}
	// The slow-consumer legs need enough iterations that a buffer-1
	// queue can actually overflow (the consumer drains the first frame
	// the moment it lands); quick runs would otherwise never shed.
	slowIters := opts.Iterations
	if slowIters < 6 {
		slowIters = 6
	}
	desPol := stats.NewTable(
		fmt.Sprintf("DES face: slow consumer × policy (stream coupling, buffer %d, %d iterations)",
			slowBuf, slowIters),
		"policy", "frames_analyzed", "frames_dropped", "publisher_block_s", "mean_write_latency_s")
	desSlow := map[storage.SlowPolicy]iostrat.Result{}
	for _, pol := range policies {
		cfg := desCfg(iostrat.InSituStream, slowBW, pol, slowBuf)
		cfg.Workload.Iterations = slowIters
		res, err := iostrat.Run(iostrat.Damaris, cfg)
		if err != nil {
			return Report{}, err
		}
		desSlow[pol] = res
		desPol.AddRow(string(pol), res.FramesAnalyzed, res.FramesDropped,
			res.StreamBlockTime, stats.Mean(res.TreeWriteLatencies))
	}

	// The slow consumer must shed at least one frame without slowing
	// production beyond a tight band — except under block, which sheds
	// nothing and stalls instead: backpressure is the point there.
	minDrops, stepBand := 1.0, 3.0
	if slowPolicy == storage.Block {
		minDrops, stepBand = 0, 1000
	}
	rep.Tables = []*stats.Table{rt, rtSlow, des, desPol}
	rep.Checks = []Check{
		{
			Name:     "runtime: streaming freshness advantage",
			Paper:    "analysis runs in parallel with the write (§V.B)",
			Measured: stats.Mean(fast.fileLat) / stats.Mean(fast.streamLat),
			Unit:     "x", Lo: 1.5, Timed: true,
		},
		{
			Name:     "runtime: write path complete despite slow consumer",
			Paper:    "loss of data rather than blocking (§V.C.1)",
			Measured: float64(slow.objects), Unit: "objects", Lo: float64(rtIters), Hi: float64(rtIters) * 2,
		},
		{
			Name:     "runtime: slow consumer sheds frames",
			Paper:    "skip iterations to keep up (§V.C.1)",
			Measured: float64(slow.dropped + (rtIters - len(slow.streamLat))),
			Unit:     "frames", Lo: minDrops, Timed: true,
		},
		{
			Name:     "runtime: production pace unaffected by slow consumer",
			Paper:    "no performance impact on the simulation (§V.C.1)",
			Measured: stats.Mean(slow.fileLat) / stats.Mean(fast.fileLat),
			Unit:     "x", Lo: 0, Hi: stepBand, Timed: true,
		},
		{
			Name:     "DES: streaming freshness advantage",
			Paper:    "in-situ sees data before it reaches storage (§V.B)",
			Measured: desFile.MeanAnalysisLatency() / desStream.MeanAnalysisLatency(),
			Unit:     "x", Lo: 1.01,
		},
		{
			Name:     "DES: coupling leaves stored volume unchanged",
			Paper:    "streaming rides along with the write",
			Measured: desStream.BytesWritten / desBase.BytesWritten,
			Unit:     "x", Lo: 0.999, Hi: 1.001,
		},
	}
	// The per-policy checks only apply when that policy actually ran:
	// -stream-policy pins the sweep to a single leg.
	if desDrop, ran := desSlow[storage.DropOldest]; ran {
		rep.Checks = append(rep.Checks,
			Check{
				Name:     "DES: drop-oldest never blocks the publisher",
				Paper:    "loss of data rather than blocking (§V.C.1)",
				Measured: desDrop.StreamBlockTime, Unit: "s", Lo: 0, Hi: 1e-9,
			},
			Check{
				Name:     "DES: drop-oldest sheds frames under a slow consumer",
				Paper:    "skip iterations to keep up (§V.C.1)",
				Measured: float64(desDrop.FramesDropped), Unit: "frames", Lo: 1,
			})
	}
	if desBlock, ran := desSlow[storage.Block]; ran {
		rep.Checks = append(rep.Checks, Check{
			Name:     "DES: block policy measures real backpressure",
			Paper:    "blocking coupling stalls the pipeline (§V.A)",
			Measured: desBlock.StreamBlockTime, Unit: "s", Lo: 1e-9,
		})
	}
	return rep, nil
}

// e7sRun is one runtime-face measurement: per-frame latencies on both
// consumer paths, from the moment the iteration's production began.
type e7sRun struct {
	streamLat []float64 // streaming-hook frame latency, seconds
	// fileLat is the file-then-read frame latency, seconds — in a
	// lockstep run also the producer's per-iteration step time.
	fileLat []float64
	dropped int // frames shed by the subscriber queue
	objects int // root objects the store accepted
}

// e7sConsumer abstracts the subscriber side of a runtime run.
type e7sConsumer struct {
	opts  storage.SubOptions
	delay time.Duration // per-frame processing cost
}

// fastConsumer drains instantly and never falls behind.
func fastConsumer() e7sConsumer {
	return e7sConsumer{opts: storage.SubOptions{Buffer: storage.DefaultStreamBuffer}}
}

// slowConsumer processes each frame slower than the producer emits
// them, forcing the queue policy to act.
func slowConsumer(pol storage.SlowPolicy, buffer int) e7sConsumer {
	return e7sConsumer{
		opts:  storage.SubOptions{Buffer: buffer, Policy: pol, BlockTimeout: 50 * time.Millisecond},
		delay: 3 * e7sWriteDelay,
	}
}

// runE7SCluster drives one runtime cluster through a paced store with a
// streaming hook attached and measures, per iteration, how long each
// consumer path waits for the data.
func runE7SCluster(nodes, clients, iters int, cons e7sConsumer) (e7sRun, error) {
	mem := storage.NewMemory(nil, 4, 1e9)
	stream := storage.NewStream()
	sub := stream.Subscribe(cons.opts)

	// began[it] is when the first client asked for iteration it's payload
	// — the zero point both latencies are measured from.
	var mu sync.Mutex
	began := make([]time.Time, iters)
	ramp := rampPayload(512)
	run := e7sRun{}

	// The streaming consumer: receives merged batches as roots finish
	// aggregating, before the paced write completes.
	consumed := consumeStream(sub, func(b *cluster.Batch) {
		at := time.Now()
		time.Sleep(cons.delay)
		mu.Lock()
		run.streamLat = append(run.streamLat, at.Sub(began[b.Iteration]).Seconds())
		mu.Unlock()
	})

	st, _, err := runtimeLeg{
		job: "e7s", nodes: nodes, clients: clients, floats: 512, iters: iters,
		cc: cluster.ClusterConfig{
			Fanout: nodes, // one tree, one root: one object per iteration
			// alpha 0: a storage system whose write latency dwarfs
			// aggregation; only the latency gap matters here.
			Store: newPacedStore(mem, e7sWriteDelay, 0),
		},
		spec: cluster.RunSpec{Hooks: []cluster.Hook{cluster.NewStreamingHook(stream)}},
		payload: func(node, source, it int) []byte {
			mu.Lock()
			if began[it].IsZero() {
				began[it] = time.Now()
			}
			mu.Unlock()
			return ramp(node, source, it)
		},
		// The file-then-read consumer: the root write is done, now read
		// the object back — it pays the paced store's latency.
		each: func(_ *cluster.Cluster, it int) error {
			names, err := mem.List("e7s-root")
			if err != nil {
				return err
			}
			got := false
			for _, name := range names {
				if at, ok := cluster.ObjectIteration(name); ok && at == it && !cluster.IsManifestName(name) {
					if _, err := mem.Get(name); err != nil {
						return err
					}
					got = true
				}
			}
			if !got {
				return fmt.Errorf("iteration %d: no root object stored", it)
			}
			mu.Lock()
			run.fileLat = append(run.fileLat, time.Since(began[it]).Seconds())
			mu.Unlock()
			return nil
		},
	}.run()
	stream.Close()
	// A block-policy slow consumer is detached on purpose: that is the
	// leg's outcome, not its failure.
	if cerr := consumed(); err == nil && !errors.Is(cerr, storage.ErrSlowConsumer) {
		err = cerr
	}
	if err != nil {
		return e7sRun{}, err
	}
	run.dropped = int(sub.Dropped())
	run.objects = st.ObjectsWritten
	return run, nil
}
