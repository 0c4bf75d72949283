# Local and CI entry points — .github/workflows/ci.yml calls exactly
# these targets, so a green `make ci` means a green workflow run
# (except `lint`, which fetches its pinned tools from the network and
# therefore runs in CI and on demand, not inside `make ci`).

GO ?= go

# Pinned static-analysis tool versions (the lint job must not float).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Coverage floor for the DES/scheduling/storage/cluster core (percent).
# go test -cover must not report a combined total below this.
COVER_FLOOR ?= 90

# Benchmark driven by the pprof-* targets (see docs/PERFORMANCE.md).
PPROF_BENCH ?= BenchmarkClusterAggregation
PPROF_PKG ?= .

.PHONY: build test vet fmt fmt-check bench loc loc-check \
	pprof-cpu pprof-alloc cover-check tidy-check \
	race-stress failure-smoke restart-smoke c1-smoke fuzz-smoke lint \
	smoke-e1 smoke-e6 smoke-f1 smoke-r1 smoke-c1 smoke-e9 smoke-e10 smoke-e7s smoke-e11 ci

build:
	$(GO) build ./...

# test is the whole suite under the race detector — the failure,
# multi-tenant service, dedup GC, streaming and re-formation races
# included, and so are the Example functions README teaches and the
# documentation rules of docs_test.go; race-stress below is the
# repeated (-count=N) pass.
test:
	$(GO) test -race ./...

# Repeated passes over what a single -count=1 run misses. Under the
# race detector: tenants finishing while other roots are still inside
# the broker's accounting (E9's runtime tenant leg; the race showed up
# about once in six runs), the service lifecycle (its eviction and quota
# drop must free every shared-memory block, and a Finish racing an Evict
# must tear its tenant down and free its nodes once), a failed driver's
# teardown and a store too slow for the run, whose blocks stay in shared memory
# until a client skips, Restore's fetch workers
# against its serial List-order merge, the token broker, the stream's
# Seq order under racing publishers, the codec selector's first Puts
# racing on one dataset, delta encoders sharing the pooled scratch
# buffers while a reader decodes, chunk-store Gets racing the sweep's pack
# compaction (whole-pack and ranged reads, over Memory and SDF), two roots' PutVecs sharing chunks,
# Deletes racing PutVec, Get and Sweep over shared chunks, the DES engine
# and its Proc adapter's coroutines, which all run on the goroutine that
# calls Run, and the cross-face tests, whose runtime half drives deaths and
# re-formations through real aggregator goroutines. Without it, at -count=200
# (~5 s): the three routing-protocol tests that flaked 1-3 % until
# Forest decided the late-drain rule — they guard its rules 1 and 2.
race-stress:
	$(GO) test -race -count=10 ./internal/des
	$(GO) test -race -count=10 -run 'TestE9Quick' ./internal/experiments
	$(GO) test -race -count=10 -run 'Service|TestRestoreConcurrentMatchesSerial|TestDriveWriteErrorSurfaces|TestSlowStoreSkipsAtTheClient' ./internal/cluster
	$(GO) test -race -count=10 -run 'Broker|TestStreamPublishSeqOrder|TestCompressingConcurrentChoice|TestCompressingConcurrentDelta' ./internal/storage
	$(GO) test -race -count=10 -run 'TestDedupStoreGetSweepRace|TestDedupStoreGetReresolvesAfterCompaction|TestDedupStoreConcurrentSweep|TestDedupStoreConcurrentPutVec|TestDedupStoreConcurrentDelete' ./internal/storage/chunk
	$(GO) test -race -count=10 -run 'TestFacesAgree' ./internal/iostrat
	$(GO) test -count=200 -run 'TestClusterInteriorFailure|TestRestoreAfterFailure|TestAdaptReformRaceWithStreaming' ./internal/cluster

# Experiment smoke matrix — one target per experiment, each at paper
# scale, so a broken experiment names itself in the CI job list (ci.yml
# fans these out via strategy.matrix). Every experiment together is
# TestPaperGolden, in make test.
smoke-e1:
	$(GO) run ./cmd/damaris-bench -exp e1

# E6 at paper scale: the single-backend policy sweep plus the
# cross-root token sweep on both faces.
smoke-e6:
	$(GO) run ./cmd/damaris-bench -exp e6

# E9 multi-tenant admission at paper scale: the full tenancy × arrival
# × policy sweep including the EDF-beats-FIFO tail check.
smoke-e9:
	$(GO) run ./cmd/damaris-bench -exp e9

# E10 incremental checkpoints at paper scale: the overwrite-fraction
# dedup sweep plus the retention/GC leg, on both faces.
smoke-e10:
	$(GO) run ./cmd/damaris-bench -exp e10

# E7S streaming pipeline at paper scale: streaming vs file-then-read on
# the runtime and DES faces, plus the slow-consumer policy sweep.
smoke-e7s:
	$(GO) run ./cmd/damaris-bench -exp e7s

# E11 scenario × adaptation sweep at paper scale: every deterministic
# workload generator under static and adaptive trees on the DES face,
# plus the runtime-face NIC-step replay with a streaming subscriber.
smoke-e11:
	$(GO) run ./cmd/damaris-bench -exp e11

smoke-f1: failure-smoke

smoke-r1: restart-smoke

smoke-c1: c1-smoke

# F1 failure-injection experiment at paper scale: fixed seed, both the
# DES and the runtime cluster sweeps.
failure-smoke:
	$(GO) run ./cmd/damaris-bench -exp f1

# R1 checkpoint/restart experiment at paper scale: write objects +
# manifests into an sdf store, restore them, replay the artifacts
# through -restart-from (the full object read path end to end) and list
# them with sdfdump. The one-node quickstart's store is checked by the
# root package's Example in make test.
restart-smoke:
	$(GO) run ./cmd/damaris-bench -exp r1 -backend-dir out/restart-smoke
	$(GO) run ./cmd/damaris-bench -restart-from out/restart-smoke/fail0
	$(GO) run ./cmd/sdfdump out/restart-smoke/fail0

# C1 compression smoke: the codec × dataset sweep with the adaptive
# selector at paper scale. The compressed on-disk restart round trip is
# internal/cluster's ExampleRestore, run by make test.
c1-smoke:
	$(GO) run ./cmd/damaris-bench -exp c1

# Short fuzz passes over the object decoders, the chunk store's segment
# walk, the aggregation protocol past the exhaustive checker's scope and
# the DES engine's event order; `go test -fuzz` takes one package per
# invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s ./internal/des
	$(GO) test -run '^$$' -fuzz '^FuzzBatchCodec$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzForestEvents$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzCodecDecode$$' -fuzztime 10s ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzChunkFrameDecode$$' -fuzztime 10s ./internal/storage/chunk
	$(GO) test -run '^$$' -fuzz '^FuzzSplitSegments$$' -fuzztime 10s ./internal/storage/chunk
	$(GO) test -run '^$$' -fuzz '^FuzzSDFReader$$' -fuzztime 10s ./internal/sdf

# Static analysis at pinned versions (fetches the tools on demand, so
# it needs network access; CI runs it as its own job).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench is the kernels' smoke run: every Benchmark* function once
# (BenchmarkDedupGet, the dedup restore, included), so a broken
# benchmark names itself. It gates nothing — the regression gate
# is the repo benchmark's -collect/-compare (benchmark/README.md).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Profiling entry points for the hot-path work: run one benchmark long
# enough to sample, drop the profile under out/pprof/, and print the
# top functions. Override PPROF_BENCH/PPROF_PKG to aim elsewhere, e.g.
#   make pprof-cpu PPROF_BENCH=BenchmarkTimerDispatch PPROF_PKG=./internal/des
# or, for the four write runs of the des-kraken benchmark workload (9,216
# cores; BenchmarkStrategyRun/1152 is the pinned 1,152-core shape):
#   make pprof-cpu PPROF_BENCH=BenchmarkStrategyRun/9216 PPROF_PKG=./internal/iostrat
# or, for its restart read (the read behind its restore_MBps), whole
# (/healthy) and through a re-routed tree (/failures):
#   make pprof-cpu PPROF_BENCH=BenchmarkRestartRead PPROF_PKG=./internal/iostrat
# or, for one root object of the ckpt-codec workload through the
# adaptive compression pipeline (BenchmarkDecodeFrame is its restore):
#   make pprof-cpu PPROF_BENCH=BenchmarkCompressingPutVec PPROF_PKG=./internal/storage
# or, for the restore of one root's four iterations of the ckpt-dedup
# workload through the chunk store's range reads over SDF:
#   make pprof-cpu PPROF_BENCH=BenchmarkDedupGet PPROF_PKG=./internal/storage/chunk
pprof-cpu:
	@mkdir -p out/pprof
	$(GO) test $(PPROF_PKG) -run '^$$' -bench '^$(PPROF_BENCH)$$' -benchtime 2s \
		-cpuprofile out/pprof/cpu.prof
	$(GO) tool pprof -top -nodecount=20 out/pprof/cpu.prof

# pprof-alloc records every allocation (-memprofilerate=1) and prints the
# top allocation sites by count (alloc_objects), which is what the DES
# work budgets ceil; e.g. the des-kraken write runs and restart read:
#   make pprof-alloc PPROF_BENCH=BenchmarkStrategyRun/9216 PPROF_PKG=./internal/iostrat
#   make pprof-alloc PPROF_BENCH=BenchmarkRestartRead PPROF_PKG=./internal/iostrat
pprof-alloc:
	@mkdir -p out/pprof
	$(GO) test $(PPROF_PKG) -run '^$$' -bench '^$(PPROF_BENCH)$$' -benchtime 2s \
		-memprofilerate=1 -memprofile out/pprof/alloc.prof
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_objects out/pprof/alloc.prof

# cover-check enforces the checked-in coverage floor over the simulation
# and scheduling core: internal/des + internal/pfs + internal/iostrat +
# internal/storage (chunk store included) + internal/cluster +
# internal/workload combined.
cover-check:
	@mkdir -p out
	$(GO) test -coverprofile=out/cover.out ./internal/des ./internal/pfs ./internal/iostrat ./internal/storage ./internal/storage/chunk ./internal/cluster ./internal/workload
	@$(GO) tool cover -func=out/cover.out | awk '/^total:/ { \
		sub("%","",$$3); \
		if ($$3+0 < $(COVER_FLOOR)) { \
			printf "coverage %.1f%% below the %d%% floor\n", $$3, $(COVER_FLOOR); exit 1 \
		} else { \
			printf "coverage %.1f%% (floor %d%%)\n", $$3, $(COVER_FLOOR) \
		} }'

# loc prints non-test Go lines per package and for the whole module —
# the ROADMAP aim-2 scoreboard. loc-check gates the same counts against
# the ceilings in docs/LOC_BUDGET.md (TestLocBudget, also in tier-1).
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' -not -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = "."; \
			for (i = 2; i < n; i++) d = d "/" p[i]; loc[d] += $$1; all += $$1 } \
		END { for (d in loc) printf "%7d  %s\n", loc[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d  whole module, non-test Go\n", all }'

loc-check:
	$(GO) test -count=1 -run '^TestLocBudget$$' .

# tidy-check fails when go.mod/go.sum drift from what go mod tidy would
# write.
tidy-check:
	$(GO) mod tidy -diff

ci: build vet fmt-check tidy-check test race-stress cover-check loc-check bench \
	smoke-e1 smoke-e6 smoke-f1 smoke-r1 smoke-c1 smoke-e9 smoke-e10 smoke-e7s smoke-e11 \
	fuzz-smoke
