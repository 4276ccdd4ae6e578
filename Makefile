# Development entry points for rcuda-go. Everything is stdlib-only Go — pure
# Go plus one AVX micro-kernel in Go assembly on amd64 (an amd64 CPU without
# AVX and every other GOARCH run the portable loop); no external tools are
# required beyond the toolchain.

GO ?= go

.PHONY: all build test race verify bubble lint vet loc chaos migrate-chaos soak bench bench-wall bench-wall-smoke fuzz pool repro figures experiments clean help

all: build test

help:
	@echo "Targets:"
	@echo "  build        compile and vet everything (plus an arm64 cross-vet of blas/kernels/gpu and a check that the arm64 code of blas/fft/kernels fuses no multiply-add)"
	@echo "  test         run all tests, including the Example programs of example_test.go, whose printed output is compared"
	@echo "  race         run all tests under the race detector"
	@echo "  verify       tier-1 gate: build + test + vet + race on data path, broker, workloads, report, device service (blas/kernels/gpu/cudart), vclock, calib, stats, perfmodel, contention, cluster, trace, event loop (des), the commands (cmd/...) + chaos suite + the synctest bubble check + one pass of the device-service, placer, load-generator, event-loop (hold and renewal), workload and cluster benchmarks"
	@echo "  bubble       the wall clock inside a testing/synctest bubble must read what the simulated clock reads, to the nanosecond, and a realtime session beside a 16 MiB copier must wait at most one PCIe read for its scheduler grant (GOEXPERIMENT=synctest)"
	@echo "  lint         go vet + rcuda-vet invariant analyzers + gofmt diff check"
	@echo "  vet          rcuda-vet only: seededrand/wiremsg/locknet/errcode invariants"
	@echo "  loc          non-blank, non-comment, non-test Go lines per package (the count 'smaller' claims cite), the test lines outside bench/, and the non-test total outside bench/"
	@echo "  chaos        fault-injection suite (scripted + 50 seeded plans), the broker's server-kill and failover runs, the typed-refusal checks of durable opens whose hello is in flight (loopback TCP; the broker must spill, not mark down) and the kept-connection faults (daemon restart or gone, watchdog, drain; loopback TCP and simulated pipes), under -race"
	@echo "  migrate-chaos  live-migration suite: source killed at every protocol phase, the pinned checkpoint bytes, the session-state table and the TTL-vs-claim check, under -race"
	@echo "  soak         10k mixed ops at ~1% fault rate, leak-checked, under -race"
	@echo "  bench        run all benchmarks"
	@echo "  bench-wall   wall-clock benchmark of the remoting stack (BENCHMARK.json, ~90 s)"
	@echo "  bench-wall-smoke  CI correctness check: one second each of the two inference, fleet placement, the two bulk-copy, the session churn, the simulated-pipe copy and the null-call workloads"
	@echo "  fuzz         short fuzzing pass over every fuzz target: the wire-protocol decoders, the chunk assembler, the socket frame reader and Sgemm against its portable tile"
	@echo "  pool         broker demo: 3 local daemons, one killed mid-batch"
	@echo "  repro        regenerate every table and figure of the paper on stdout"
	@echo "  figures      render the figures as SVGs under figs/"
	@echo "  experiments  regenerate EXPERIMENTS.md and the three virtual-clock BENCH files (batched inference, WFQ-vs-FIFO scheduler, 10^4-10^5 session scale harness) from one campaign; verify fails while a committed one differs"
	@echo "  clean        remove figs/ and the test cache"

# The arm64 cross-vet (no network, no cgo) type-checks the files amd64 never
# compiles: the portable tile that stands in for the AVX micro-kernel, and
# everything above it. Then the arm64 assembly listing of blas, fft and
# kernels must hold no fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB):
# the portable arithmetic rounds every product, as amd64 does, so every host
# computes the same bits.
build:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/blas ./internal/kernels ./internal/gpu
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/blas ./internal/fft ./internal/kernels 2>&1) || { echo "$$out" | tail -20; exit 1; }; \
	fused=$$(echo "$$out" | grep -E '[[:space:]]F(N?MADD|N?MSUB)[SD][[:space:]]'); \
	if [ -n "$$fused" ]; then echo "fused multiply-add in the arm64 build of blas, fft or kernels (round the product with an explicit conversion):"; echo "$$fused"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Lint: go vet, the repo's own invariant analyzers, and a gofmt
# cleanliness check (stdlib tooling only).
lint: vet
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# rcuda-vet: the custom static-analysis suite (DESIGN.md section 13).
# Nonzero exit on any determinism, wire-protocol, or lock-discipline
# violation; there is no suppression mechanism — fix the code.
vet:
	$(GO) run ./cmd/rcuda-vet ./...

# Code size: non-blank, non-comment, non-test Go lines per package directory
# — the one count a "smaller" claim in CHANGES.md cites — then the same
# count over the _test.go files of every package but ./bench, and, last, the
# non-test sum over every package but ./bench, the number the ROADMAP gates
# on. Comment-only lines do not count, so deleting comments moves nothing.
loc:
	@total=0; tests=0; for pkg in $$($(GO) list -f '{{.Dir}}' ./... | sed 's|^$(CURDIR)|.|'); do \
		files=$$(ls $$pkg/*.go | grep -v _test.go); \
		if [ -n "$$files" ]; then n=$$(cat $$files | grep -cvE '^\s*(//.*)?$$'); printf '%6d  %s\n' $$n $$pkg; \
			if [ "$$pkg" != ./bench ]; then total=$$((total + n)); fi; fi; \
		tfiles=$$(ls $$pkg/*_test.go 2>/dev/null); \
		if [ -n "$$tfiles" ] && [ "$$pkg" != ./bench ]; then tests=$$((tests + $$(cat $$tfiles | grep -cvE '^\s*(//.*)?$$'))); fi; \
	done; printf '%6d  test lines outside bench/\n' $$tests; printf '%6d  total outside bench/\n' $$total

# Tier-1 verification: full build + tests, the invariant analyzers, the
# concurrent data-path packages (wire codec, transport framing, middleware
# streaming + batching, pool broker + its autoscaler, the scale harness, the
# full-stack workloads, the report and the root package, which run the
# simulated deployment) under the race detector, and the deterministic
# fault-injection suite. The device-service packages ride along for
# checkptr, which -race turns on: kernels view device memory through the one
# unsafe conversion, and their misaligned, overlapping and end-of-allocation
# cases must pass it. The simulated clock and the calibrated cost tables
# hold lock-free shared state (an atomic instant, a per-size memo) and run
# under the detector too, as does the loader that snapshots every counter
# set by reading its atomics (internal/stats). The analytic model, the
# contention simulator, the cluster scheduler and the call recorder
# (internal/perfmodel, contention, cluster, trace) run under it too: the
# schedule oracle records a session across client and server goroutines,
# and so does the event loop every simulation runs on (internal/des). So do
# the commands' own tests (./cmd/...): rcuda-broker's kills one of three
# in-process daemons mid-batch, rcuda-perf's measures a daemon over
# loopback. Last,
# every benchmark of the device service, the placer
# (BenchmarkPickSaturated), the load generator (BenchmarkRunScaleDown,
# BenchmarkRunClasses), the event loop (BenchmarkEventLoop,
# BenchmarkEventLoopHold, BenchmarkEventLoopRenewal), the workloads (BenchmarkAnalyticRemoteRun,
# BenchmarkPipelinedAnalytic, BenchmarkFunctionalRemoteRun) and the cluster
# scheduler (BenchmarkSimulate64Jobs, BenchmarkGenerateTrace) runs once, so
# the in-package witnesses DESIGN.md cites keep compiling and running.
# The bubble check (below) rides along.
verify: build test vet chaos bubble
	$(GO) test -race ./internal/protocol/... ./internal/transport/... ./internal/rcuda/... ./internal/broker/... ./internal/sched/... ./internal/loadgen/... ./internal/workload/... \
		./internal/report/... . \
		./internal/blas/... ./internal/kernels/... ./internal/gpu/... ./internal/cudart/... \
		./internal/vclock/... ./internal/calib/... ./internal/stats/... \
		./internal/perfmodel/... ./internal/contention/... ./internal/cluster/... ./internal/trace/... ./internal/des/... \
		./cmd/...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/blas ./internal/kernels ./internal/gpu ./internal/broker ./internal/loadgen ./internal/workload ./internal/cluster ./internal/des

# Bubble check: inside a testing/synctest bubble, time is fake and moves
# only when every goroutine blocks, so a wall clock reads exactly the sleeps
# charged on it. Pipelined, chunked, batched and synchronous runs on the
# wall clock there must equal the simulated clock to the nanosecond: one
# timing model on every clock. The same bubble holds the scheduler grant to
# the device work: a realtime session's wait beside a 16 MiB copy to the
# host is at most one PCIe read, not the reply's flight. The test file
# builds only under this experiment (Go 1.24).
bubble:
	GOEXPERIMENT=synctest $(GO) test -count=1 -run Bubble ./internal/workload

# Chaos suite: every fault kind's transport semantics, the retry policy, and
# the MM/FFT case studies under scripted and 50 consecutive seeded fault
# plans — results must be bit-exact after recovery; the broker's
# server-kill and failover runs; and the refusals of durable opens whose
# hello is already in flight, over loopback TCP: every one must arrive as
# ErrServerBusy, and a broker must spill off it without marking the daemon
# down; and the faults of a connection a pool keeps between sessions — the
# daemon restarted or gone, the watchdog, a drain — over loopback TCP and
# simulated pipes. -count=1 defeats the test cache so the seeds actually
# rerun.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Faulty|Fault|Retry|Truncat|Reattach|Session|Plan|KeepFor|Refusal|KeptConn' \
		./internal/transport/... ./internal/rcuda/... ./internal/faults/... ./internal/broker/...

# Migration chaos: checkpoint round-trips and the pinned checkpoint bytes,
# the daemon-to-daemon transfer, a source-daemon kill swept across every
# phase boundary of the migration dialogue, standby-checkpoint failover,
# scale-down drain-by-migration, the session-state table and the collector
# that must leave a claimed session alone — all under -race, bit-exact
# results asserted after every recovery.
migrate-chaos:
	$(GO) test -race -count=1 \
		-run 'Migrat|Standby|Checkpoint|RestoreState|ContextState|SessionTransitions|TTLSkipsClaimed' \
		./internal/rcuda/... ./internal/broker/... ./internal/loadgen/... \
		./internal/protocol/... ./internal/gpu/...

# Soak: 10k mixed operations through a ~1% seeded fault rate, then a
# goroutine-leak check. Skipped by -short runs; takes ~10-30s under -race.
soak:
	$(GO) test -race -count=1 -run 'Soak' -timeout 10m ./internal/rcuda/

bench:
	$(GO) test -bench=. -benchmem ./...

# Wall-clock benchmark of the remoting stack (bench/README.md): the eight
# BENCHMARK.json workloads over a real loopback socket, end-to-end metrics
# normalised to stdlib-only reference loops. Numbers are machine-dependent;
# nothing is committed from this target.
bench-wall:
	bash bench/run.sh

# CI correctness check on eight of the benchmark's workloads: one second of
# batched inference requests, every output compared bit for bit with the local
# runtime, and one second of fleet placement, every loadgen run checked
# for its invariants (all completed, none lost or unplaced) and for
# same-seed determinism; then one second each of 16 MiB copies both ways in
# single frames and as a chunk pipeline — the landed data path over a real
# socket — every copy compared byte for byte; then one second of session
# churn through the broker — every open, malloc, free and close must
# succeed, with no device memory left in use and no failover or markdown in
# any round; then one second of 16 MiB copies through the simulated pipe —
# every copy byte for byte, every op's simulated copy times equal to the
# first op's, nothing left on the device; then one second of the same
# inference requests unbatched — thirty round trips each, every message in
# its connection's storage, bit for bit again — and one second of null
# calls, the smallest exchange there is. The harness exits non-zero on any
# wrong output or broken invariant; timings on a CI runner are not judged.
bench-wall-smoke:
	bash bench/run.sh --workload infer_batched --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload fleet_place --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload memcpy_bulk --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload memcpy_chunked --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload session_churn --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload sim_memcpy --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload infer_unbatched --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload rtt_small --seed 1 --seconds 1 --trace 0

# Short fuzzing pass over every fuzz target in the repository: the
# wire-protocol decoders, the chunk assembler of both chunk streams (a
# chunked copy's and a migration's), the socket receive that frames every
# message the daemon and the client read, and Sgemm against the portable
# tile (the differential oracle of the amd64 micro-kernel). The nightly
# workflow runs this same list for longer (FUZZTIME=120s);
# TestFuzzListNamesEveryTarget (internal/analysis) fails when a target is
# missing from it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz='^FuzzDecodeRequest$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzDecodeStatsReply$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzDecodeInitRequest$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzTryDecodeStatsQuery$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzTryDecodeSessionRestore$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzDecodeCheckpoint$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzChunkAssembler$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzDecodeMigrateChunk$$' -fuzztime=$(FUZZTIME) ./internal/protocol/
	$(GO) test -fuzz='^FuzzTCPRecv$$' -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -fuzz='^FuzzSgemmAgainstPortable$$' -fuzztime=$(FUZZTIME) ./internal/blas/

# Broker demo: spawn three local daemons, run a verified MM/FFT batch through
# the pool, and kill one server mid-job to show failover with clean results.
pool:
	$(GO) run ./cmd/rcuda-broker -spawn 3 -kill -jobs 9

# Regenerate every table and figure of the paper on stdout.
repro:
	$(GO) run ./cmd/rcuda-repro -all

# Render the figures as SVG files under figs/.
figures:
	$(GO) run ./cmd/rcuda-repro -svg figs

# Regenerate the four committed virtual-clock files from one campaign: the
# paper-vs-reproduction document EXPERIMENTS.md and the BENCH files it
# quotes — BENCH_batching.json (the DNN inference loop over both testbed
# networks, batched and unbatched, every output bit-exact on one digest),
# BENCH_sched.json (the tenant mixes under FIFO and WFQ: realtime p99 >= 5x
# better at <= 10% throughput delta, a 2:1 weighted share, two-run
# determinism) and BENCH_loadscale.json (10^4-10^5 session fleets, no
# durable session lost, every session placed). Every run is seeded, so
# each file is a pure function of the code; TestExperimentsDocumentIsFresh
# (internal/report, part of verify) fails, naming the file and this target,
# while a committed one differs.
experiments:
	$(GO) run ./cmd/rcuda-repro -write .

clean:
	rm -rf figs
	$(GO) clean -testcache
