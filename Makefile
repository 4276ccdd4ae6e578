# Development entry points for rcuda-go. Everything is stdlib-only Go — pure
# Go plus one SSE2 micro-kernel in Go assembly on amd64 (every other GOARCH
# runs the portable loop); no external tools are required beyond the
# toolchain.

GO ?= go

.PHONY: all build test race verify lint vet loc chaos migrate-chaos soak bench bench-batch bench-scale bench-scale-smoke bench-sched bench-sched-smoke bench-wall bench-wall-smoke fuzz pool repro figures experiments clean help

all: build test

help:
	@echo "Targets:"
	@echo "  build        compile and vet everything (plus an arm64 cross-vet of blas/kernels/gpu)"
	@echo "  test         run all tests"
	@echo "  race         run all tests under the race detector"
	@echo "  verify       tier-1 gate: build + test + race on data path + chaos suite"
	@echo "  lint         go vet + rcuda-vet invariant analyzers + gofmt diff check"
	@echo "  vet          rcuda-vet only: seededrand/wiremsg/locknet/errcode invariants"
	@echo "  loc          non-blank, non-comment, non-test Go lines per package (the count 'smaller' claims cite)"
	@echo "  chaos        fault-injection suite (scripted + 50 seeded plans) under -race"
	@echo "  migrate-chaos  live-migration suite: source killed at every protocol phase, under -race"
	@echo "  soak         10k mixed ops at ~1% fault rate, leak-checked, under -race"
	@echo "  bench        run all benchmarks"
	@echo "  bench-batch  run the batched-path inference bench, refresh BENCH_batching.json"
	@echo "  bench-scale  run the 10^4-10^5 session scale harness, refresh BENCH_loadscale.json"
	@echo "  bench-scale-smoke  CI freshness check: re-run the <=10^4 scale scenarios"
	@echo "  bench-sched  run the WFQ-vs-FIFO starvation bench, refresh BENCH_sched.json"
	@echo "  bench-sched-smoke  CI freshness check: re-run the scheduler scenarios"
	@echo "  bench-wall   wall-clock benchmark of the remoting stack (BENCHMARK.json, ~90 s)"
	@echo "  bench-wall-smoke  CI correctness check: one second each of the two inference, fleet placement, the two bulk-copy, the session churn, the simulated-pipe copy and the null-call workloads"
	@echo "  fuzz         short fuzzing pass over the wire-protocol decoders and Sgemm against its portable tile"
	@echo "  pool         broker demo: 3 local daemons, one killed mid-batch"
	@echo "  repro        regenerate every table and figure of the paper on stdout"
	@echo "  figures      render the figures as SVGs under figs/"
	@echo "  experiments  refresh EXPERIMENTS.md"
	@echo "  clean        remove figs/ and the test cache"

# The arm64 cross-vet (no network, no cgo) type-checks the files amd64 never
# compiles: the portable tile that stands in for the SSE2 micro-kernel, and
# everything above it.
build:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/blas ./internal/kernels ./internal/gpu

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
# — the one count a "smaller" claim in CHANGES.md cites. Comment-only lines
# do not count, so deleting comments moves nothing.
loc:
	@for pkg in $$($(GO) list -f '{{.Dir}}' ./... | sed 's|^$(CURDIR)|.|'); do \
		files=$$(ls $$pkg/*.go | grep -v _test.go); \
		if [ -n "$$files" ]; then printf '%6d  %s\n' $$(cat $$files | grep -cvE '^\s*(//.*)?$$') $$pkg; fi; \
	done

# Tier-1 verification: full build + tests, the invariant analyzers, the
# concurrent data-path packages (transport framing, middleware streaming +
# batching, pool broker + its autoscaler, the scale harness, the full-stack
# workloads) under the race detector, and the deterministic fault-injection
# suite. The device-service packages ride along for checkptr, which -race
# turns on: kernels view device memory through the one unsafe conversion,
# and their misaligned, overlapping and end-of-allocation cases must pass it.
verify: build test vet chaos
	$(GO) test -race ./internal/transport/... ./internal/rcuda/... ./internal/broker/... ./internal/sched/... ./internal/loadgen/... ./internal/workload/... \
		./internal/blas/... ./internal/kernels/... ./internal/gpu/...

# Chaos suite: every fault kind's transport semantics, the retry policy, and
# the MM/FFT case studies under scripted and 50 consecutive seeded fault
# plans — results must be bit-exact after recovery. -count=1 defeats the
# test cache so the seeds actually rerun.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Faulty|Fault|Retry|Truncat|Reattach|Session|Plan|KeepFor' \
		./internal/transport/... ./internal/rcuda/... ./internal/faults/...

# Migration chaos: checkpoint round-trips, the daemon-to-daemon transfer,
# a source-daemon kill swept across every phase boundary of the migration
# dialogue, standby-checkpoint failover, and scale-down drain-by-migration —
# all under -race, bit-exact results asserted after every recovery.
migrate-chaos:
	$(GO) test -race -count=1 \
		-run 'Migrat|Standby|Checkpoint|RestoreState|ContextState' \
		./internal/rcuda/... ./internal/broker/... ./internal/loadgen/... \
		./internal/protocol/... ./internal/gpu/...

# Soak: 10k mixed operations through a ~1% seeded fault rate, then a
# goroutine-leak check. Skipped by -short runs; takes ~10-30s under -race.
soak:
	$(GO) test -race -count=1 -run 'Soak' -timeout 10m ./internal/rcuda/

bench:
	$(GO) test -bench=. -benchmem ./...

# Deterministic batched-path trajectory: the DNN inference loop over both
# testbed networks, batched and unbatched, on the simulation clock. Commit
# the refreshed BENCH_batching.json so regressions show up in review.
bench-batch:
	$(GO) run ./cmd/rcuda-bench-batch -out BENCH_batching.json

# Deterministic scale trajectory: 10^4-session smoke scenarios plus the
# 10^5-session autoscaled run, all on the virtual clock. Commit the
# refreshed BENCH_loadscale.json so placement-behavior drift shows up in
# review.
bench-scale:
	$(GO) run ./cmd/rcuda-loadgen -out BENCH_loadscale.json

# CI freshness check: re-run only the scenarios at or under 10^4 sessions
# and fail if the committed BENCH_loadscale.json does not match.
bench-scale-smoke:
	$(GO) run ./cmd/rcuda-loadgen -check -cap 10000 -out BENCH_loadscale.json

# Deterministic scheduler bench: the mixed-tenant starvation scenario under
# FIFO vs WFQ on the virtual clock, plus weighted-share proportionality.
# The command enforces the fairness gates (realtime p99 >= 5x better at
# <= 10% throughput delta) and two-run determinism before writing. Commit
# the refreshed BENCH_sched.json so scheduling drift shows up in review.
bench-sched:
	$(GO) run ./cmd/rcuda-bench-sched -out BENCH_sched.json

# CI freshness check: re-run the scheduler scenarios (seconds of virtual
# time, fast on the wall clock) and fail if BENCH_sched.json is stale.
bench-sched-smoke:
	$(GO) run ./cmd/rcuda-bench-sched -check -out BENCH_sched.json

# Wall-clock benchmark of the remoting stack (bench/README.md): the eight
# BENCHMARK.json workloads over a real loopback socket, end-to-end metrics
# normalised to stdlib-only reference loops. Numbers are machine-dependent;
# nothing is committed from this target.
bench-wall:
	bash bench/run.sh

# CI correctness check on the two fast paths: one second of batched
# inference requests, every output compared bit for bit with the local
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

# Short fuzzing pass over the wire-protocol decoders, and over Sgemm against
# the portable tile (the differential oracle of the amd64 micro-kernel).
fuzz:
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/protocol/
	$(GO) test -fuzz=FuzzDecodeStatsReply -fuzztime=30s ./internal/protocol/
	$(GO) test -fuzz=FuzzTryDecodeSessionRestore -fuzztime=30s ./internal/protocol/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=30s ./internal/protocol/
	$(GO) test -fuzz=FuzzSgemmAgainstPortable -fuzztime=30s ./internal/blas/

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

# Refresh the paper-vs-reproduction comparison document.
experiments:
	$(GO) run ./cmd/rcuda-repro -experiments > EXPERIMENTS.md

clean:
	rm -rf figs
	$(GO) clean -testcache
