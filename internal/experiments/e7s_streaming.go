package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/iostrat"
	"repro/internal/meta"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topology"
)

// e7sClusterMeta is the per-node description of the runtime-face runs:
// one float64 row per client, small enough that the paced store's
// artificial write delay dominates every other cost.
const e7sClusterMeta = `<simulation name="e7s">
  <architecture><dedicated cores="1"/><buffer size="4194304"/></architecture>
  <data>
    <parameter name="n" value="512"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`

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
		"consumer_path", "mean_latency_ms", "p95_latency_ms", "frames")
	rt.AddRow("streaming hook", stats.Mean(fast.streamLat)*1e3,
		stats.Percentile(sorted(fast.streamLat), 95)*1e3, len(fast.streamLat))
	rt.AddRow("file-then-read", stats.Mean(fast.fileLat)*1e3,
		stats.Percentile(sorted(fast.fileLat), 95)*1e3, len(fast.fileLat))

	rtSlow := stats.NewTable(
		fmt.Sprintf("runtime face: slow consumer under %s (buffer %d)", slowPolicy, slowBuf),
		"consumer", "frames_received", "frames_dropped", "objects_written", "mean_step_ms")
	rtSlow.AddRow("fast", len(fast.streamLat), fast.dropped, fast.objects, stats.Mean(fast.stepTimes)*1e3)
	rtSlow.AddRow("slow", len(slow.streamLat), slow.dropped, slow.objects, stats.Mean(slow.stepTimes)*1e3)

	// ---- DES face: virtual-time freshness at multi-node scale. ----
	cores := opts.Scales[0]
	desCfg := func(mode iostrat.InSituMode, bw float64, pol storage.SlowPolicy, buf int) iostrat.Config {
		cfg := opts.strategyConfig(cores)
		if cfg.Fanout < 2 {
			cfg.Fanout = 4
		}
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
	var desDrop, desBlock iostrat.Result
	for _, pol := range policies {
		cfg := desCfg(iostrat.InSituStream, slowBW, pol, slowBuf)
		cfg.Workload.Iterations = slowIters
		res, err := iostrat.Run(iostrat.Damaris, cfg)
		if err != nil {
			return Report{}, err
		}
		switch pol {
		case storage.DropOldest:
			desDrop = res
		case storage.Block:
			desBlock = res
		}
		desPol.AddRow(string(pol), res.FramesAnalyzed, res.FramesDropped,
			res.StreamBlockTime, stats.Mean(res.TreeWriteLatencies))
	}

	rep.Tables = []*stats.Table{rt, rtSlow, des, desPol}
	rep.Checks = []Check{
		{
			Name:     "runtime: streaming freshness advantage",
			Paper:    "analysis runs in parallel with the write (§V.B)",
			Measured: stats.Mean(fast.fileLat) / stats.Mean(fast.streamLat),
			Unit:     "x", Lo: 1.5,
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
			Unit:     "frames", Lo: minDropsExpected(slowPolicy),
		},
		{
			Name:     "runtime: production pace unaffected by slow consumer",
			Paper:    "no performance impact on the simulation (§V.C.1)",
			Measured: stats.Mean(slow.stepTimes) / stats.Mean(fast.stepTimes),
			Unit:     "x", Lo: 0, Hi: slowStepBand(slowPolicy),
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
	if hasPolicy(policies, storage.DropOldest) {
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
	if hasPolicy(policies, storage.Block) {
		rep.Checks = append(rep.Checks, Check{
			Name:     "DES: block policy measures real backpressure",
			Paper:    "blocking coupling stalls the pipeline (§V.A)",
			Measured: desBlock.StreamBlockTime, Unit: "s", Lo: 1e-9,
		})
	}
	return rep, nil
}

// minDropsExpected returns how many shed frames the slow-consumer leg
// must see: the block policy sheds nothing (it stalls instead).
func minDropsExpected(pol storage.SlowPolicy) float64 {
	if pol == storage.Block {
		return 0
	}
	return 1
}

// slowStepBand is the accepted production-slowdown band for the slow
// consumer: tight for the shedding policies (the write path must be
// untouched), opened wide under block (backpressure is the point).
func slowStepBand(pol storage.SlowPolicy) float64 {
	if pol == storage.Block {
		return 1000
	}
	return 3
}

func hasPolicy(pols []storage.SlowPolicy, want storage.SlowPolicy) bool {
	for _, p := range pols {
		if p == want {
			return true
		}
	}
	return false
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// e7sRun is one runtime-face measurement: per-frame latencies on both
// consumer paths plus the producer's step times.
type e7sRun struct {
	streamLat []float64 // streaming-hook frame latency, seconds
	fileLat   []float64 // file-then-read frame latency, seconds
	stepTimes []float64 // producer-side per-iteration wall time
	dropped   int       // frames shed by the subscriber queue
	objects   int       // root objects the store accepted
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

// delayedStore delays every Put by a fixed wall-clock amount — a
// stand-in for a storage system whose write latency dwarfs aggregation
// (E6's pacedStore models contention; here only the latency gap
// matters). It deliberately does not implement storage.VecStore, so
// the cluster write path issues one flattened Put per root object.
type delayedStore struct {
	inner storage.ObjectStore
	delay time.Duration
}

func (s *delayedStore) Put(name string, data []byte) error {
	time.Sleep(s.delay)
	return s.inner.Put(name, data)
}

// runE7SCluster drives one runtime cluster through a paced store with a
// streaming hook attached and measures, per iteration, how long each
// consumer path waits for the data.
func runE7SCluster(nodes, clients, iters int, cons e7sConsumer) (e7sRun, error) {
	metaCfg, err := meta.ParseString(e7sClusterMeta)
	if err != nil {
		return e7sRun{}, err
	}
	mem := storage.NewMemory(nil, 4, 1e9)
	stream := storage.NewStream()
	sub := stream.Subscribe(cons.opts)
	c, err := cluster.New(cluster.ClusterConfig{
		Platform: topology.Platform{Name: "e7s", Nodes: nodes, CoresPerNode: clients + 1},
		Fanout:   nodes, // one tree, one root: one object per iteration
		Store:    &delayedStore{inner: mem, delay: e7sWriteDelay},
	}, cluster.RunSpec{
		Meta:  metaCfg,
		Hooks: []cluster.Hook{cluster.NewStreamingHook(stream)},
	})
	if err != nil {
		return e7sRun{}, err
	}

	// prodDone[it] is closed with the production timestamp once every
	// client has ended iteration it — the zero point both latencies are
	// measured from.
	prodTime := make([]time.Time, iters)
	var mu sync.Mutex
	run := e7sRun{}

	// The streaming consumer: receives merged batches as roots finish
	// aggregating, before the paced write completes.
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	consumerErr := make(chan error, 1)
	go func() {
		defer consumerWG.Done()
		for {
			msg, err := sub.Recv()
			if err != nil {
				if err != storage.ErrStreamClosed && err != storage.ErrSlowConsumer {
					consumerErr <- err
				}
				return
			}
			now := time.Now()
			b, err := cluster.DecodeBatch(msg.Data)
			if err != nil {
				consumerErr <- err
				return
			}
			if cons.delay > 0 {
				time.Sleep(cons.delay)
			}
			mu.Lock()
			run.streamLat = append(run.streamLat, now.Sub(prodTime[b.Iteration]).Seconds())
			mu.Unlock()
		}
	}()

	payload := make([]float64, 512)
	for it := 0; it < iters; it++ {
		step0 := time.Now()
		for i := range payload {
			payload[i] = float64(it*len(payload) + i)
		}
		data := compress.Float64Bytes(payload)
		for n := 0; n < nodes; n++ {
			for s := 0; s < clients; s++ {
				if err := c.Client(n, s).Write("theta", it, data); err != nil {
					return e7sRun{}, fmt.Errorf("node %d src %d it %d: %w", n, s, it, err)
				}
			}
		}
		prodTime[it] = time.Now()
		for n := 0; n < nodes; n++ {
			for s := 0; s < clients; s++ {
				c.Client(n, s).EndIteration(it)
			}
		}
		// The file-then-read consumer: wait for the root write, then
		// read the object back — it pays the paced store's latency.
		c.WaitIteration(it)
		names, err := mem.List("e7s-root")
		if err != nil {
			return e7sRun{}, err
		}
		got := false
		for _, name := range names {
			if strings.HasSuffix(name, fmt.Sprintf("-it%06d", it)) {
				if _, err := mem.Get(name); err != nil {
					return e7sRun{}, err
				}
				got = true
			}
		}
		if !got {
			return e7sRun{}, fmt.Errorf("iteration %d: no root object stored", it)
		}
		run.fileLat = append(run.fileLat, time.Since(prodTime[it]).Seconds())
		run.stepTimes = append(run.stepTimes, time.Since(step0).Seconds())
	}

	if err := c.Shutdown(); err != nil {
		return e7sRun{}, err
	}
	stream.Close()
	consumerWG.Wait()
	select {
	case err := <-consumerErr:
		return e7sRun{}, err
	default:
	}
	run.dropped = int(sub.Dropped())
	run.objects = c.Stats().ObjectsWritten
	return run, nil
}
