package report

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/calib"
	"rcuda/internal/contention"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/loadgen"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

// Experiments generates the EXPERIMENTS.md document: for every table and
// figure of the paper, the reproduction's numbers next to the published
// ones, with relative deltas. The document is fully regenerated from the
// simulation campaign, so it reflects whatever the code currently does.
func (c Config) Experiments() (string, error) {
	var sb strings.Builder
	sb.WriteString(`# EXPERIMENTS — paper vs. reproduction

Regenerate with ` + "`go run ./cmd/rcuda-repro -experiments`" + fmt.Sprintf(
		" (seed %d, %d repetitions, %.1f%% noise).\n\n", c.Seed, c.reps(), c.Sigma*100))
	sb.WriteString(`Absolute numbers come from a calibrated simulator (see DESIGN.md §2), so
"measured" columns track the paper by construction; the *reproduced results*
are the derived quantities — fixed times, cross-validation error rates, and
target-network projections — which the estimation-model code recomputes from
the simulated measurements exactly as the paper's method prescribes.

`)

	c.expTableI(&sb)
	if err := c.expFigures34(&sb); err != nil {
		return "", err
	}
	c.expTableII(&sb)
	c.expTablesIIIandV(&sb)
	data, err := c.TableVIData()
	if err != nil {
		return "", err
	}
	if err := c.expTableIV(&sb); err != nil {
		return "", err
	}
	c.expTableVI(&sb, data)
	c.expFigures56(&sb, data)
	if err := c.expExtensions(&sb); err != nil {
		return "", err
	}
	sb.WriteString(wallClockSection)
	return sb.String(), nil
}

// wallClockSection is the one part of the document that is recorded, not
// regenerated: wall-clock numbers belong to the machine they were measured
// on, so they are kept verbatim with that machine's fingerprint. Everything
// above it runs on the virtual clock and is recomputed on every run.
const wallClockSection = `## Wall-clock measurements (recorded, not regenerated)

Everything above is virtual-clock output. The rows below are what our Go
code costs on a real CPU, measured with the repository benchmark
(` + "`bash bench/run.sh`" + `, bench/README.md): real loopback socket, in-process
server, Sim-clock device, every op verified bit-exact. ` + "`op_over_ref`" + ` is
the time of one inference request in units of a bare 8-byte TCP round trip
measured in the same slices.

### PR 13 — launch fast path (DESIGN.md §16)

Parent 96b89e6 vs the change, 10 alternating pairs of 10 s runs per
workload, seeds 1–10, median [quartiles]:

| workload | metric | parent | change | pairs won |
|---|---|---|---|---|
| infer_batched | op_over_ref | 62.6 [60.9, 63.8] | 18.2 [18.1, 18.7] | 10/10 |
| infer_batched | setup_s | 0.0573 | 0.0300 | 10/10 |
| infer_batched | allocs_per_op | 570.0 | 97.1 | 10/10 |
| infer_batched | alloc_bytes_per_op | 123 700 | 5 937 | 10/10 |
| infer_batched | rss_mb | 10.28 | 10.14 | 7/10 — unchanged |
| infer_unbatched | op_over_ref | 162.0 [155.6, 172.3] | 51.2 [50.4, 52.4] | 10/10 |
| infer_unbatched | setup_s | 0.0889 | 0.0421 | 10/10 |
| infer_unbatched | allocs_per_op | 483.9 | 143.1 | 10/10 |
| infer_unbatched | alloc_bytes_per_op | 114 780 | 6 000 | 10/10 |
| infer_unbatched | rss_mb | 10.12 | 9.38 | 10/10 |

Per-layer metrics from one traced run of each side (` + "`go run ./bench -trace`" + `,
seed 1; first figure from the infer_batched child, second from
infer_unbatched):

| metric | parent | change |
|---|---|---|
| gpu.launch_sgemm16_ns | 9 579 / 9 461 | 4 050 / 3 593 |
| gpu.allocs_per_launch | 12 | 0 |
| gpu.local_req_ns | 225 149 / 252 031 | 98 305 / 77 487 |
| gpu.local_req_allocs | 289 | 1 |
| rcuda.server_handle_ns | 337 573 / 471 001 | 91 330 / 109 838 |
| protocol.decode_launch_ns | 77 / 100 | 86 / 95 — unresolved |
| protocol.batch_decode_ns | 2 644 / 2 810 | 3 719 / 2 890 — unresolved |
| transport.msgs_per_op | 4 / 30 | 4 / 30 |
| transport.bytes_per_op | 3 996 / 3 931 | 3 996 / 3 931 |
| rcuda.batch_ops_per_frame | 26 | 26 |

The saving sits where it was claimed: the server's handling time of a
batched request fell by 246 µs, more than the 127 µs the same 24 launches
save on an idle local runtime, because the parent also paid for collecting
570 allocations per request. The two decode loops run for microseconds
inside a two-minute traced run and their run-to-run spread is wider than
the change; alternating the two builds' ` + "`DecodeRequest`" + ` under ` + "`go test -bench`" + `
resolves it: launch 138 → 100 ns (3 → 2 allocations), the 26-op batch
3 895 → 3 091 ns (77 → 53).

What did not move: the wire (messages, bytes, ops per frame identical),
` + "`rss_mb`" + ` on ` + "`infer_batched`" + `, and — on the six workloads that launch no
kernel (rtt_small, memcpy_bulk, memcpy_chunked, session_churn, fleet_place,
sim_memcpy; 3 pairs each, 11 for session_churn) — ` + "`op_over_ref`" + `, ` + "`setup_s`" + `,
` + "`alloc_bytes_per_op`" + ` and ` + "`rss_mb`" + `, all inside the BENCHMARK.json bounds
(widest: ` + "`rss_mb`" + ` +10 % on memcpy_bulk, +9 % on session_churn, both bimodal
on either side). Their ` + "`allocs_per_op`" + ` fell by the one allocation per
successful round trip that ` + "`code(nil)`" + ` no longer makes (rtt_small 2 → 1).
Failed ops: 0 on every run of either side.

` + "```" + `
context {"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz","nproc":2,"gomaxprocs":2,"kernel":"6.18.44-fc-v42","go":"go1.24.0","seconds":10,"path":"loopback, in-process server, Sim-clock device","load":"closed loop, one client, one generating process"}
` + "```" + `

### PR 14 — placement fast path (DESIGN.md §17)

Parent 550c857 vs the change, alternating pairs of 10 s runs, seeds 1–10,
median [quartiles]. One ` + "`fleet_place`" + ` op is two loadgen fleet simulations
(10⁴ bursty sessions with drain-by-migration, 10⁵ class-aware sessions);
` + "`op_over_ref`" + ` is its time in units of a fixed stdlib CPU loop measured in
the same slices.

| workload | metric | parent | change | pairs won |
|---|---|---|---|---|
| fleet_place | op_over_ref | 11.92 [11.39, 12.27] | 1.82 [1.77, 1.85] | 10/10 |
| fleet_place | allocs_per_op | 1 075 180 | 114 090 | 10/10 |
| fleet_place | alloc_bytes_per_op | 90 386 000 | 10 670 800 | 10/10 |
| fleet_place | rss_mb | 26.66 | 26.00 | 7/10 — unchanged |
| fleet_place | setup_s | 0.1411 | 0.1345 | 7/10 — unchanged |
| session_churn | op_over_ref | 3.27 [3.20, 3.38] | 3.31 [3.26, 3.35] | 5/10 — unchanged |
| session_churn | allocs_per_op | 89.83 | 90.82 | 0/10 — one more |
| session_churn | alloc_bytes_per_op | 189 925 | 190 078 | 1/10 |
| session_churn | rss_mb | 11.03 | 11.38 | 5/10 — unchanged |
| session_churn | setup_s | 0.0227 | 0.0214 | 6/10 — unchanged |

` + "`session_churn`" + ` is the live pool's ` + "`Open`" + `, which now walks a ranking over its
two daemons. Its one extra allocation per op (of 90) is the ranking's
candidate buffer: the parent's exclude map never escaped ` + "`Open`" + ` and was
never written on the path where the first daemon accepts, so it cost
nothing. The other six workloads execute none of the changed placement
code (3 pairs each): ` + "`op_over_ref`" + ` change/parent 0.996 rtt_small, 0.982
memcpy_bulk, 0.986 memcpy_chunked, 1.002 infer_unbatched, 0.984
infer_batched, 1.017 sim_memcpy; allocations and bytes per op equal to the
third digit; widest other movement ` + "`rss_mb`" + ` +8 % on memcpy_bulk (bimodal
183/199 MiB on both sides) and ` + "`setup_s`" + ` +11 % on infer_batched (27.5 vs
30.6 ms over three pairs), both inside the BENCHMARK.json bounds. Failed
ops: 0 of 305 and 251 552 on the two paired workloads, 0 on every other
run of either side.

Per-layer metrics, traced runs of ` + "`fleet_place`" + ` and ` + "`session_churn`" + ` (seed 1)
and the two in-package benchmarks:

| metric | parent | change |
|---|---|---|
| broker.spills_per_session | 100.09 | 40.55 |
| loadgen.scale_down_migrate_ms | 1 041 | 61–83 (two runs) |
| loadgen.classes_100k_ms | 276 | 103–151 (two runs) |
| loadgen.sessions_per_s_host | 83 540 | 469 000–669 000 |
| des.eventloop_ns_per_event | 885 | 490–500 |
| broker.open_ns | 246 512 | 238 717 |
| broker.pick_64_ns | 775 | 765 — unchanged |
| ` + "`BenchmarkPickSaturated`" + ` (48 daemons, all refusing) | 56 466 ns, 9 allocs | 4 461 ns, 0 allocs |
| ` + "`BenchmarkEventLoop`" + ` (10⁶ timers) | 839 ns/event, 2 000 039 allocs | 491–515 ns/event, 38 allocs |

The saving sits where the issue put it. A refused placement no longer
re-keys the fleet per refusal (` + "`BenchmarkPickSaturated`" + `: 12.7× on a walk to
the end of 48 daemons), and a blocked head is no longer re-walked per
arrival: the scale-down shape, which spends most of its time saturated,
fell 12–17×, and its spill count — now one real refusal each — from 100 to
41 per session. The class-aware shape rarely saturates; its 1.8–2.7× comes
from ranking once per placement and from the typed heap (1.7–1.8× per
event, no boxing). A single ` + "`Pick`" + ` over 64 endpoints did not get faster:
the traced figure swings between 440 and 980 ns on either side on this
machine, and 15 alternations of the two builds at ` + "`-cpu 1`" + ` give the medians
in the table. The issue expected it to fall; it keys each endpoint once
where the parent keyed it twice through two closures, but compares six
words instead of three.

` + "```" + `
context {"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz","nproc":2,"gomaxprocs":2,"kernel":"6.18.44-fc-v42","go":"go1.24.0","seconds":10,"path":"loopback, in-process server, Sim-clock device","load":"closed loop, one client, one generating process"}
` + "```" + `

### PR 15 — direct placement of bulk copies (DESIGN.md §18)

Parent 0965fa3 vs the change, alternating pairs of 10 s runs
(` + "`" + `-trace 0` + "`" + `), seeds 1–10 on the two copy workloads, median [quartiles].
One op is a 16 MiB ` + "`" + `cudaMemcpy` + "`" + ` to the device and one back, every byte
compared; ` + "`" + `op_over_ref` + "`" + ` is its time in units of a bare TCP stream of the
same bytes each way measured in the same slices.

| workload | metric | parent | change | pairs won |
|---|---|---|---|---|
| memcpy_bulk | op_over_ref | 1.707 [1.660, 1.723] | 1.089 [1.069, 1.102] | 10/10 |
| memcpy_bulk | rss_mb | 189.0 [183.8, 199.3] | 87.4 [87.3, 87.5] | 10/10 |
| memcpy_bulk | setup_s | 0.1055 | 0.0864 | 10/10 |
| memcpy_bulk | allocs_per_op | 7.00 | 6.37 | 10/10 |
| memcpy_bulk | alloc_bytes_per_op | 216 | 159 | 10/10 |
| memcpy_chunked | op_over_ref | 1.389 [1.346, 1.418] | 1.032 [1.017, 1.066] | 10/10 |
| memcpy_chunked | allocs_per_op | 46.75 | 14.12 | 10/10 |
| memcpy_chunked | alloc_bytes_per_op | 1 376 | 318 | 10/10 |
| memcpy_chunked | rss_mb | 94.4 | 87.5 | 10/10 |
| memcpy_chunked | setup_s | 0.1024 | 0.0874 | 10/10 |
| sim_memcpy (5 pairs) | op_over_ref | 3.756 [3.724, 3.763] | 3.052 [2.781, 3.085] | 5/5 |
| sim_memcpy | rss_mb | 259.8 | 238.9 | 4/5 |
| sim_memcpy | allocs_per_op / alloc_bytes_per_op / setup_s | 6.27 / 152 / 0.0475 | 6.24 / 149 / 0.0453 | 4/5 each — unchanged |

Per seed, ` + "`" + `memcpy_bulk` + "`" + ` parent → change: 1.814 → 1.102, 1.700 → 1.063,
1.649 → 1.102, 1.780 → 1.082, 1.678 → 1.096, 1.654 → 1.149, 1.714 → 1.140,
1.725 → 1.065, 1.654 → 1.059, 1.717 → 1.080. The claim (≤ 1.35, at least
nine of ten pairs, a median gap wider than the parent's own quartile
distance of 0.063) holds on every seed; only seed 1 was run while the code
was being written. ` + "`" + `memcpy_chunked` + "`" + ` and ` + "`" + `sim_memcpy` + "`" + ` execute the changed
code and were expected to follow, not claimed. ` + "`" + `sim_memcpy` + "`" + `'s simulated
milliseconds per copy are identical on both sides (the harness fails an op
whose simulated times differ from the first op's).

Workloads that never reach a Lander (frames under 64 KiB, or no socket):

| workload | pairs | op_over_ref parent → change | allocs_per_op | widest other movement |
|---|---|---|---|---|
| rtt_small | 10 | 1.144 [1.138, 1.152] → 1.147 [1.145, 1.151] (+0.3 %, 4/10 — unchanged) | 1 → 1 | rss_mb −0.4 % |
| session_churn | 5 | 3.376 [3.291, 3.404] → 3.319 [3.317, 3.486], 2/5 — unresolved inside the spread | 90.81 → 90.79 | rss_mb 10.49 → 11.37 (+8 %; it sat at 11.0–11.4 on both sides of PR 14's pairs) |
| infer_unbatched | 3 | 52.49 → 52.82 (+0.6 %) | 143.1 → 143.0 | rss_mb −4 % |
| infer_batched | 3 | 18.29 → 18.31 | 97.06 → 97.04 | setup_s 25.3 → 27.0 ms (+7 %, 1/3) |
| fleet_place | 3 | 1.823 → 1.842 (+1 %, 2/3 won) | 114 000 → 114 000 | setup_s +3.5 % |

Every end-to-end metric of every workload is inside its BENCHMARK.json
bound; failed ops: 0 on every run of either side (1 402 + 2 076 copy pairs
on ` + "`" + `memcpy_bulk` + "`" + `, 1 543 + 2 068 on ` + "`" + `memcpy_chunked` + "`" + `).

**Where the saving sits.** ` + "`" + `go run ./bench -trace` + "`" + ` cannot show it: the
bench's ` + "`" + `spanConn` + "`" + ` wrapper forwards only the optional transport interfaces
it knew when it was written, so a traced run receives whole — the staging
route — on both sides of the comparison. The attribution is by count and by
the in-package benchmark instead:

| measure | parent | change |
|---|---|---|
| pooled buffers ≥ 64 KiB taken per 16 MiB copy pair, both ends (` + "`" + `Conn.Stats().PoolBulk` + "`" + `, plus the server's own send staging at the parent) | 3 of the 32 MiB class | 0 |
| … per chunked copy pair | 48 of the 1 MiB class | 0 |
| allocations per copy pair, whole process (` + "`" + `testing.AllocsPerRun` + "`" + `) | 6 | 6 |
| … per chunked copy pair | 46 | 14 |
| … per ` + "`" + `cudaDeviceSynchronize` + "`" + ` round trip / per session open + close | 1 / 59 | 1 / 59 |
| ` + "`" + `BenchmarkMemcpyPipeline/tcp/legacy` + "`" + ` (16 MiB each way; ` + "`" + `-benchtime 20x -cpu 2` + "`" + `, three alternations) | 27.6–31.2 ms, 6.7–7.6 MB/op, 8–9 allocs | 16.1–17.9 ms, 216 B/op, 7 allocs |
| ` + "`" + `BenchmarkMemcpyPipeline/tcp/chunked` + "`" + ` | 20.2–21.6 ms, 316 KB/op, 48 allocs | 16.6–17.4 ms, 393–401 B/op, 15 allocs |

Three memmoves of 16 MiB per pair are gone (pooled buffer → device memory,
device memory → pooled buffer, pooled buffer → ` + "`" + `dst` + "`" + `), and with them the
32 MiB-class buffers they went through, which is the whole of the ` + "`" + `rss_mb` + "`" + `
drop: what remains is the payload buffers the workload itself holds plus
the runtime. What is left above 1.0 includes the framing and the 4-byte
reply round trip of each direction, which the reference stream does not
make. The chunked pipeline, which wins on the simulated clock by overlapping PCIe
with the wire, now also costs on a real socket what the single frame costs
(1.03 vs 1.09) instead of paying a decoded message per chunk on each end.

` + "```" + `
context {"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz","nproc":2,"gomaxprocs":2,"kernel":"6.18.44-fc-v42","go":"go1.24.0","seconds":10,"path":"loopback, in-process server, Sim-clock device","load":"closed loop, one client, one generating process"}
` + "```" + `

### PR 16 — session set-up fast path (DESIGN.md §19)

Parent 70f7284 vs the change, alternating pairs of 10 s runs (` + "`" + `-trace 0` + "`" + `),
seeds 1–10 on ` + "`" + `session_churn` + "`" + ` and ` + "`" + `rtt_small` + "`" + `, median [quartiles]. One
` + "`" + `session_churn` + "`" + ` op opens a session through the broker over two in-process
daemons, mallocs, frees and closes; ` + "`" + `op_over_ref` + "`" + ` is its time in units of a
bare dial plus four ping-pongs measured in the same slices.

| workload | metric | parent | change | pairs won |
|---|---|---|---|---|
| session_churn | op_over_ref | 3.376 [3.297, 3.429] | 1.612 [1.589, 1.653] | 10/10 |
| session_churn | alloc_bytes_per_op | 190 120 | 9 140 | 10/10 |
| session_churn | allocs_per_op | 90.82 | 81.90 | 10/10 |
| session_churn | setup_s | 0.0213 [0.0210, 0.0224] | 0.0132 [0.0130, 0.0134] | 10/10 |
| session_churn | rss_mb | 10.96 [10.44, 11.43] | 10.52 [10.39, 10.66] | 7/10 — unchanged |

Per seed, parent → change: 3.347 → 1.724, 3.404 → 1.569, 3.280 → 1.617,
3.348 → 1.606, 3.258 → 1.655, 3.200 → 1.647, 3.406 → 1.684, 3.485 → 1.588,
3.437 → 1.592, 3.436 → 1.577. The claim (a fall of at least 30 %, i.e.
≤ 2.3; at least nine of ten pairs; a median gap wider than the parent's own
quartile distance of 0.13) holds on every seed, at −52 %; only seed 1 was
run while the code was being written. Failed ops: 0 of 128 931 sessions on
the parent's ten runs, 0 of 237 672 on the change's. The followed figures
landed where the issue put them: under 16 000 B and at most 84 allocations
per session, set-up and resident memory no higher.

Workloads whose set-up is one connection per 10 s round, or none:

| workload | pairs | op_over_ref parent → change | allocs_per_op | alloc_bytes_per_op | rss_mb | setup_s |
|---|---|---|---|---|---|---|
| rtt_small | 10 | 1.1461 [1.1418, 1.1470] → 1.1401 [1.1382, 1.1472] (−0.5 %, 7/10 — inside the 0.93 % A/A spread) | 1 → 1 (10 ties) | 4.001 → 4.001 | 7.15 → 7.12 | 0.0368 [0.0365, 0.0372] → 0.0372 [0.0367, 0.0381] (+1.3 %, 3/10 — unresolved inside the spread) |
| memcpy_bulk | 3 | 1.117 → 1.076 (2/3) | 6.33 → 6.33 | 146 → 157 (+8 %: 12 B on ~210 ops a run, inside its bound) | 87.6 → 87.2 | 0.0870 → 0.0845 |
| memcpy_chunked | 3 | 1.025 → 1.051 (+2.6 %, 1/3) | 14.17 → 14.14 | 319 → 319 | 87.2 → 87.5 | 0.0800 → 0.0819 (+2 %, 0/3) |
| infer_unbatched | 3 | 52.46 → 52.18 | 143.04 → 143.03 | 5 998 → 5 998 | 9.27 → 9.23 | 0.0424 → 0.0425 |
| infer_batched | 3 | 18.71 → 18.63 | 97.04 → 97.04 | 5 934 → 5 935 | 10.06 → 9.87 | 0.0301 → 0.0293 |
| fleet_place | 3 | 1.826 → 1.783 (−2.4 %, 3/3) | 114 050 → 114 050 | 10 668 000 → 10 666 000 | 25.6 → 25.9 | 0.1407 → 0.1445 (+2.7 %, 0/3) |
| sim_memcpy | 3 | 3.538 → 3.355 (2/3) | 6.22 → 6.25 | 148 → 150 | 235 → 231 | 0.0394 → 0.0399 |

Every end-to-end metric of every workload is inside its BENCHMARK.json
bound and no run of either side failed an op. ` + "`" + `fleet_place` + "`" + ` and
` + "`" + `sim_memcpy` + "`" + ` execute none of the changed code; their movement (−2.4 %,
−5 %, and ` + "`" + `fleet_place` + "`" + `'s set-up +2.7 %) is what three pairs on this
machine scatter. The issue expected ` + "`" + `setup_s` + "`" + ` to move only downward on the
socket workloads; over these pairs it is flat to within ±3 % everywhere but
` + "`" + `session_churn` + "`" + `, in both directions, which three pairs (ten on ` + "`" + `rtt_small` + "`" + `)
cannot tell from no change. ` + "`" + `rtt_small` + "`" + ` — the receive path that gained two
atomic updates and a call — stays at one allocation and inside its A/A
spread.

Per-layer metrics, traced runs of ` + "`" + `session_churn` + "`" + ` (seed 1):

| metric | parent | change |
|---|---|---|
| broker.open_ns | 226 315 | 118 382 |
| broker.dial_ns | 71 134 | 37 852 |
| rcuda.handshake_ns | 154 994 | 80 470 |
| rcuda.client_self_ns / rcuda.server_handle_ns | 29 616 / 26 909 | 11 968 / 9 153 |
| rcuda.wire_ns | 149 263 | 102 521 |
| harness.op_p50_us / op_p99_us | 193 / 1 101 | 112 / 397 |
| harness.cpu_us_per_op | 268 | 159 |
| harness.peak_rss_mb | 20.5 | 14.3 |
| harness.op_p99_over_ref | 4.03 | 1.46 |
| harness.trace_overhead_pct | 26.3 | 12.1 |
| transport.msgs_per_op / bytes_per_op | 5.00 / 21 550 | 5.00 / 21 550 |
| transport.pool_hit_ratio | 0.760 | 0.757 — unchanged, see DESIGN.md §19 |
| open + close, both ends in process (` + "`" + `testing.AllocsPerRun` + "`" + `, ` + "`" + `runtime.MemStats.TotalAlloc` + "`" + `) | 59 allocations | 51 allocations, 3 487 B |

The saving is in every span, the dial included, and the wire is identical:
no layer does less work per session except for the nine allocations
(181 KB) that are gone, so what fell is time spent in or waiting on the
collector — 109 µs less CPU per op, and a p99 that falls from 4.0× to 1.5×
the reference's (` + "`" + `harness.op_p99_over_ref` + "`" + `) because a session no longer
meets a collection every ~30 opens.
The ablation in the issue (seed 5: everything but the pool 3.16 / 141 KB,
the pool alone 2.71 / 59 KB, both 1.75 / 9.1 KB) says the same: the parts
compound.

` + "`" + `` + "`" + `` + "`" + `
context {"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz","nproc":2,"gomaxprocs":2,"kernel":"6.18.44-fc-v42","go":"go1.24.0","seconds":10,"path":"loopback, in-process server, Sim-clock device","load":"closed loop, one client, one generating process"}
` + "`" + `` + "`" + `` + "`" + `

### PR 18 — bulk frames cross the simulated pipe by reference (DESIGN.md §20)

Parent f9f2e8e vs the change, alternating pairs of 10 s runs (` + "`" + `-trace 0` + "`" + `),
seeds 1–10 on ` + "`" + `sim_memcpy` + "`" + `, median [quartiles]. One ` + "`" + `sim_memcpy` + "`" + ` op is a
16 MiB ` + "`" + `cudaMemcpy` + "`" + ` to the device and back through ` + "`" + `transport.Pipe` + "`" + ` and a
real server on a Sim-clock device; ` + "`" + `op_over_ref` + "`" + ` is its time in units of a
` + "`" + `memmove` + "`" + ` of the same bytes there and back, measured in the same slices.
Every op of every round must read back byte for byte and reproduce the
first op's simulated copy times, or it counts as failed.

| workload | metric | parent | change | pairs won |
|---|---|---|---|---|
| sim_memcpy | op_over_ref | 3.399 [3.340, 3.404] | 0.936 [0.929, 0.960] | 10/10 |
| sim_memcpy | rss_mb | 231.4 [224.9, 247.1] | 150.9 [150.9, 151.0] | 10/10 |
| sim_memcpy | setup_s | 0.0498 [0.0478, 0.0509] | 0.0399 [0.0391, 0.0410] | 10/10 |
| sim_memcpy | allocs_per_op | 6.79 [6.66, 6.98] | 6.00 [6.00, 6.00] | 10/10 |
| sim_memcpy | alloc_bytes_per_op | 214.9 [206.2, 219.9] | 128.9 [128.0, 129.0] | 10/10 |

Per seed, parent → change: 3.404 → 0.979, 3.402 → 0.931, 3.325 → 0.961,
3.397 → 0.979, 3.510 → 0.958, 3.387 → 0.895, 3.416 → 0.929, 3.104 → 0.911,
3.400 → 0.939, 3.213 → 0.933. The claim (a fall of at least 50 %, i.e.
≤ 1.7 here; at least nine of ten pairs; a median gap wider than the
parent's own quartile distance of 0.06) holds on every seed, at −72 %; only
seed 1 was run while the code was being written. Failed ops: 0 of 2 622 on
the parent's ten runs, 0 of 7 284 on the change's — 245–284 ops a run
became 625–827, a mean op of 12.4–15.8 ms became 3.4–4.5 ms, and peak RSS
went from 231–311 MiB to 151–167 MiB. By direction (seed 1):
` + "`" + `h2d_over_ref` + "`" + ` 4.14 → 1.01, ` + "`" + `d2h_over_ref` + "`" + ` 2.35 → 0.93. The followed
figures landed where the issue put them (` + "`" + `rss_mb` + "`" + ` ≤ 165, ` + "`" + `setup_s` + "`" + ` no
higher, ` + "`" + `allocs_per_op` + "`" + ` ≤ 7). ` + "`" + `op_over_ref` + "`" + ` now reads just under 1.0
because the reference walks a six-buffer ring sized for the staging
buffers that no longer exist (DESIGN.md §20, follow-up).

The parent's figures on this VM are milder than the ones the issue quotes
from its own profile (mean op 119.6 ms, 52 ops a run): a fresh 32 MiB
buffer costs 14–68 ms to make here, not 0.4–0.5 s. The ratio the benchmark
gates is a median over slice pairs and read 3.1–3.6 on both.

` + "`" + `BenchmarkMemcpyPipeline/sim` + "`" + ` (one 64 MiB host-to-device copy, an MM 4096
matrix; ` + "`" + `-benchtime 20x -cpu 2` + "`" + `, three alternations of the two test
binaries, each cell the three runs):

| sub-benchmark | sim-ms/copy, both sides | parent ms/op · B/op · allocs | change ms/op · B/op · allocs |
|---|---|---|---|
| GigaE/legacy | 598.3 | 69.9, 95.5, 98.8 · 67 117 400 · 7 | 16.2, 20.1, 7.9 · 140 · 3 |
| GigaE/chunked | 1757 | 22.5, 74.4, 32.4 · 1 992 750 · 11–12 | 25.3, 34.3, 19.6 · 237–532 · 8–9 |
| GigaE/chunked+retry | 1757 | 30.8, 21.4, 18.9 · 1 992 737 · 11 | 29.2, 40.9, 14.5 · 206–236 · 8 |
| 40GI/legacy | 57.99 | 69.7, 81.3, 50.8 · 67 117 390 · 6–7 | 20.4, 20.8, 12.9 · 140–149 · 3–4 |
| 40GI/chunked | 47.07 | 32.5, 26.3, 23.9 · 1 992 740 · 11 | 37.4, 21.8, 20.7 · 232–507 · 8–9 |
| 40GI/chunked+retry | 47.07 | 26.2, 21.9, 22.4 · 1 992 740 · 11 | 31.3, 27.7, 17.8 · 228–232 · 8 |

The simulated milliseconds are identical on all six rows. The single-frame
rows are the claim's mechanism at paper size: a frame larger than the
pool's largest class was 67 MB of fresh memory per copy and is now 140 B.
The chunked rows lose their 2 MB per copy (a 1 MiB + 12 B chunk lives in
the 2 MiB class, and a miss allocated it) and three allocations, but their
host time is unresolved inside this machine's spread — a chunk sender now
meets the receiver once per chunk instead of running 16 ahead, which costs
a goroutine hand-off per MiB and saves a copy per MiB.

Where the saving is. A traced run cannot attribute it: ` + "`" + `bench/span.go` + "`" + `'s
` + "`" + `spanConn` + "`" + ` forwards no landing, so traced ops take the no-Lander route
(one pooled frame per direction on the receiving end) on both sides of
the change. The attribution is by count and repeats exactly:
` + "`" + `transport.Stats.PoolBulk` + "`" + ` over a 64 MiB copy pair through the pipe and a
real server is 2 at the parent and 0 now, on both ends together;
` + "`" + `runtime.MemStats.TotalAlloc` + "`" + ` over that pair is 134 234 688 B at the parent
and under 64 KiB now; a 16 MiB pair allocates 8 times at the parent and 6
now (` + "`" + `TestPipeCopyPairAllocatesNothingOfItsSize` + "`" + `). Traced, seed 1, for
what it does show: ` + "`" + `harness.cpu_us_per_op` + "`" + ` 13 382 → 7 537,
` + "`" + `harness.peak_rss_mb` + "`" + ` 246.5 → 150.6, ` + "`" + `transport.msgs_per_op` + "`" + ` and
` + "`" + `bytes_per_op` + "`" + ` 2 / 33 554 480 on both sides.

Workloads that construct no ` + "`" + `PipeEnd` + "`" + ` (3 pairs each; 7 on ` + "`" + `rtt_small` + "`" + `,
` + "`" + `memcpy_bulk` + "`" + ` and ` + "`" + `fleet_place` + "`" + `, 10 on ` + "`" + `memcpy_chunked` + "`" + ` and
` + "`" + `session_churn` + "`" + `, after the first three pairs put a ` + "`" + `setup_s` + "`" + ` outside its
bound):

| workload | pairs | op_over_ref parent → change | allocs_per_op | alloc_bytes_per_op | rss_mb | setup_s |
|---|---|---|---|---|---|---|
| rtt_small | 7 | 1.154 [1.148, 1.161] → 1.160 [1.151, 1.162] (+0.5 %, 2/7) | 1 → 1 (6 ties) | 4.001 → 4.002 | 6.88 → 7.09 (+3 %, 1/7) | 0.0397 → 0.0413 (+4 %, 2/7) |
| memcpy_bulk | 7 | 1.102 [1.089, 1.159] → 1.136 [1.115, 1.169] (+3 %, 3/7) | 6.25 → 6.33 | 135 → 141 | 87.2 → 87.2 | 0.099 → 0.111 (+11 %, 3/7) |
| memcpy_chunked | 10 | 1.082 [1.028, 1.107] → 1.034 [1.013, 1.072] (−4 %, 6/10) | 14.2 → 14.1 | 322 → 320 | 91.9 → 87.4 | 0.112 [0.105, 0.129] → 0.103 [0.094, 0.126] (5/10; first three pairs alone: 0.148 → 0.204) |
| infer_unbatched | 3 | 55.79 → 56.28 (+0.9 %, 1/3) | 143.03 → 143.03 | 5 995 → 5 995 | 9.17 → 9.17 | 0.088 → 0.076 |
| infer_batched | 3 | 19.51 → 18.81 (−3.6 %, 2/3) | 97.04 → 97.04 | 5 933 → 5 930 | 9.77 → 9.95 | 0.036 → 0.033 |
| session_churn | 10 | 1.543 [1.529, 1.567] → 1.596 [1.554, 1.621] (+3.4 %, 1/10) | 81.99 → 82.03 | 9 159 → 9 164 | 10.20 → 10.22 | 0.0347 [0.0308, 0.0472] → 0.0471 [0.0340, 0.0492] (+36 %, 5/10 — unresolved: both sides are bimodal between 0.031 and 0.049) |
| fleet_place | 7 | 1.841 [1.822, 1.881] → 1.828 [1.787, 1.848] (−0.7 %, 5/7) | 114 120 → 114 120 (5 ties) | 10 677 000 → 10 675 000 | 26.0 → 25.7 | 0.155 [0.151, 0.163] → 0.186 [0.175, 0.202] (+20 %, 0/7 — see below) |

None of the seven executes a changed line (` + "`" + `TCPConn` + "`" + `, the counters, the
pool and every codec are untouched; ` + "`" + `transport` + "`" + ` gained no package-level
initialisation), so what moves here is the machine and the binary's
layout. Every ` + "`" + `op_over_ref` + "`" + `, allocation and RSS median is inside its
BENCHMARK.json bound, and ` + "`" + `rtt_small` + "`" + ` stays at exactly one allocation.
` + "`" + `setup_s` + "`" + ` is not resolved on this VM: two builds of the *parent's* source
(byte-identical binaries) run as alternating pairs differed by up to 13 %
on ` + "`" + `session_churn` + "`" + `'s ` + "`" + `op_over_ref` + "`" + ` (1.53 vs 1.73, 1.68 vs 1.60, …), and
` + "`" + `fleet_place` + "`" + `'s set-up — two loadgen simulations, no socket, no transport —
read 0.136 / 0.140 / 0.147 s (medians of ten 3 s runs) for parent, the
identical second build, and the change. ` + "`" + `fleet_place` + "`" + ` ` + "`" + `setup_s` + "`" + ` +20 % over
its seven 10 s pairs and ` + "`" + `session_churn` + "`" + ` ` + "`" + `op_over_ref` + "`" + ` +3.4 % are reported
as measured; the first is inside its 25 % bound, the second inside its
bound and that A/A spread, and neither workload can reach the code this PR
changed.

` + "`" + `` + "`" + `` + "`" + `
context {"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz","nproc":2,"gomaxprocs":2,"kernel":"6.18.44-fc-v50","go":"go1.24.0","seconds":10,"path":"in-process simulated pipe (sim_memcpy); loopback, in-process server, Sim-clock device (the rest)","load":"closed loop, one client, one generating process"}
` + "`" + `` + "`" + `` + "`" + `

### PR 21 — device service: SSE2 micro-kernel, kernels in place (DESIGN.md §22)

Parent 5224683 vs the change, 10 alternating 10 s pairs per workload, seeds 1–10 (only 1 seen while coding), median [quartiles], pairs won; 0 failed ops on either side of every workload.

| workload | op_over_ref parent → change | setup_s | allocs_per_op | alloc_bytes_per_op | rss_mb |
|---|---|---|---|---|---|
| **infer_batched** (claimed) | **19.09 [18.43, 19.69] → 9.95 [9.73, 10.18], −47.9 %, 10/10**, every run of the change under every run of the parent | 0.0231 → 0.0199 (10/10) | 97.04 → 97.04 | 5 932 → 5 929 | 10.13 → 10.12 |
| infer_unbatched (followed) | 54.45 [53.60, 56.18] → 45.34 [44.52, 46.44], −16.7 %, 10/10 | 0.0342 → 0.0317 (8/10) | 143.04 → 143.03 | 5 998 → 5 996 | 9.51 → 9.53 |
| rtt_small | 1.167 [1.160, 1.174] → 1.158 [1.152, 1.171] (8/10) | 0.0297 → 0.0309 (+4 %, 3/10) | 1 → 1 (10 ties) | 4.001 → 4.001 | 7.13 → 7.14 |
| memcpy_bulk | 1.125 [1.117, 1.143] → 1.099 [1.085, 1.117] (7/10) | 0.0884 → 0.0900 (+1.8 %, 4/10) | 6.37 → 6.30 | 160 → 144 | 87.3 → 87.1 |
| memcpy_chunked | 1.016 [0.994, 1.044] → 1.017 [1.006, 1.039] (5/10) | 0.0886 [0.0867, 0.0906] → 0.0898 [0.0863, 0.0905] (+1.3 %, 7/10) | 14.00 → 14.04 | 316.6 → 317.2 | 87.2 → 87.1 |
| session_churn | 1.850 [1.729, 1.878] → 1.949 [1.851, 2.026] (+5.4 %, 3/10) — unresolved inside the spread: parent runs 1.69–2.20, change 1.81–2.27 | 0.0146 → 0.0150 (+2.2 %, 5/10) | 81.90 → 81.90 | 9 172 → 9 174 | 10.69 → 10.63 |
| fleet_place | 1.758 [1.737, 1.783] → 1.696 [1.677, 1.755] (8/10) | 0.128 → 0.121 (8/10) | 114 090 → 114 090 | 10 671 000 → 10 672 000 | 26.2 → 25.5 |
| sim_memcpy | 0.741 [0.736, 0.755] → 0.724 [0.715, 0.744] (7/10) | 0.0392 → 0.0401 (+2.2 %, 6/10) | 6.09 → 6.08 | 132.4 → 132.3 | 150.7 → 150.7 |

infer_batched per seed: 18.06 → 9.71, 19.72 → 9.85, 18.61 → 9.71, 20.15 → 10.09, 19.90 → 9.69, 18.87 → 9.78, 18.36 → 10.42, 18.37 → 10.21, 19.32 → 10.04, 19.61 → 10.77 (320 368 → 546 365 requests, each bit-exact against ` + "`" + `cudart.Local` + "`" + `). The claim (≥ 30 % lower, i.e. ≤ 13.4 here; nine of ten pairs; a gap wider than the parent's quartile distance of 1.26) holds on every seed. infer_unbatched per seed: 52.18 → 44.30, 55.07 → 45.57, 52.95 → 44.48, 53.83 → 44.63, 53.61 → 45.10, 55.38 → 49.74, 56.89 → 42.75, 53.60 → 45.83, 56.83 → 46.64, 56.44 → 47.03 — back under its PR 15 value of 51. The six workloads below the line launch no kernel on the timed path and execute no changed line; every median is inside its BENCHMARK.json bound, no ` + "`" + `setup_s` + "`" + ` moved by more than 4 %, and ` + "`" + `session_churn` + "`" + `'s ` + "`" + `op_over_ref` + "`" + ` is reported as unresolved, not as unchanged.

Where the saving is (ten alternating traced 3 s pairs of ` + "`" + `infer_batched` + "`" + `, median [quartiles]): ` + "`" + `gpu.launch_sgemm16_ns` + "`" + ` 2 911 [2 646, 3 237] → 838 [787, 1 034]; ` + "`" + `gpu.local_req_ns` + "`" + ` 76.4 [70.7, 84.8] → 20.5 [19.7, 26.8] µs; ` + "`" + `rcuda.server_handle_ns` + "`" + ` 87.2 [84.5, 92.0] → 28.9 [27.4, 30.0] µs; ` + "`" + `rcuda.wire_ns` + "`" + ` 47.7 → 39.4 µs and ` + "`" + `rcuda.client_self_ns` + "`" + ` 5.9 → 4.7 µs (untouched code — not claimed, not explained); ` + "`" + `harness.op_p50_us` + "`" + ` 110 → 64.5; ` + "`" + `harness.cpu_us_per_op` + "`" + ` 122 → 70.6; ` + "`" + `gpu.allocs_per_launch` + "`" + ` and ` + "`" + `gpu.local_req_allocs` + "`" + ` 0 → 0. ` + "`" + `BenchmarkSgemmFanOut` + "`" + ` inline, parent → change: 16³ 2 379 → 443 ns, 32³ 21.7 → 3.8 µs, 64³ 110 → 23 µs, 128³ 744 → 173 µs; ` + "`" + `BenchmarkLaunchSgemm16` + "`" + ` staged (C one byte off) 1 350 ns, in place 770–840 ns — of the launch's fall from 2 500 ns the micro-kernel is about two thirds and the in-place operands the rest.

` + "`" + `` + "`" + `` + "`" + `
context {"cpu":"Intel(R) Xeon(R) Processor @ 2.10GHz","nproc":2,"gomaxprocs":2,"kernel":"6.18.44-fc-v50","go":"go1.24.0","seconds":10,"path":"loopback, in-process server, Sim-clock device; in-process simulated pipe (sim_memcpy)","load":"closed loop, one client, one generating process"}
` + "`" + `` + "`" + `` + "`" + `
`

func (c Config) expExtensions(sb *strings.Builder) error {
	sb.WriteString("## Extensions beyond the paper\n\n")
	// Pipelined FFT (Figure 7): report the overlap gain on the fastest
	// and slowest networks at one representative batch.
	gain := func(netName string) (float64, error) {
		link, err := netsim.ByName(netName)
		if err != nil {
			return 0, err
		}
		sync, err := workload.Run(calib.FFT, 8192, workload.Remote, workload.Options{Link: link})
		if err != nil {
			return 0, err
		}
		piped, err := workload.RunPipelined(8192, 8, workload.Options{Link: link})
		if err != nil {
			return 0, err
		}
		return (1 - float64(piped.Total)/float64(sync.Total)) * 100, nil
	}
	fast, err := gain("40GI")
	if err != nil {
		return err
	}
	slow, err := gain("GigaE")
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Asynchronous pipelining (Figure 7, `+"`-figure 7`"+`)**: splitting the
  FFT batch into 8 double-buffered chunks hides %.1f%% of the remote
  execution time on 40GI, where the device engines are the bottleneck. On
  GigaE the same pipelining *loses* %.1f%%: each mid-size chunk pays the
  TCP-window excess that one large transfer amortizes, so chunked
  asynchronous transfers only pay off once the interconnect is fast and
  clean — a concrete answer to the paper's deferred future work.
- **Cluster sizing (examples/clusterplan, BenchmarkClusterSweep)**: list
  scheduling of synthetic job traces over the calibrated profiles answers
  "how many GPUs does the cluster need"; at the light utilization the
  paper's premise assumes, 1-2 shared GPUs per 8-16 nodes match the fully
  equipped cluster's makespan within 10%%.
`, fast, -slow)

	// Contention (Figure 9): quantify the per-client slowdown of sharing.
	shared, err := contention.Run(contention.Params{
		CS: calib.MM, Size: 8192, Clients: 4, Link: netsim.IB40G(),
	})
	if err != nil {
		return err
	}
	lone, err := contention.Run(contention.Params{
		CS: calib.MM, Size: 8192, Clients: 1, Link: netsim.IB40G(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Multi-client contention (Figure 9, `+"`-figure 9`"+`)**: an event-level
  simulation (internal/des) of clients sharing one GPU server's link and
  device. Four MM clients on 40GI run %.1fx slower each than a lone client
  (GPU-bound, %.0f%% device utilization); on GigaE the wire saturates first
  for the FFT — the paper's last future-work item, quantified.

`, shared.PerClient[3].Seconds()/lone.PerClient[0].Seconds(), shared.GPUUtilization*100)

	// Chunked memcpy pipeline (BenchmarkMemcpyPipeline): run one large copy
	// through the real middleware over the simulated links, with and without
	// the chunked protocol, and report the modeled times.
	fastLegacy, fastChunked, err := chunkedMemcpyTimes(netsim.IB40G())
	if err != nil {
		return err
	}
	slowLegacy, slowChunked, err := chunkedMemcpyTimes(netsim.GigaE())
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Chunked memcpy pipeline (BenchmarkMemcpyPipeline)**: a cudaMemcpy above
  a threshold can stream as ~1 MiB chunks so the server overlaps receiving
  chunk k+1 with pushing chunk k across PCIe. A 64 MiB host-to-device copy
  on 40GI drops from %.1f to %.1f sim-ms (%.0f%% faster, approaching
  max(wire, PCIe) instead of their sum); on GigaE the same copy *rises*
  from %.0f to %.0f sim-ms because every chunk pays the TCP-window excess
  one large frame amortizes — so chunking is opt-in
  (rcuda.WithChunkedTransfers) and the default wire format is unchanged.
  On a real socket the pooled zero-copy framing that carries the chunks
  also cuts the legacy path's allocations per round trip by ~74%%.

`, simMS(fastLegacy), simMS(fastChunked),
		(1-fastChunked.Seconds()/fastLegacy.Seconds())*100,
		simMS(slowLegacy), simMS(slowChunked))

	// Fault injection and retry (chaos suite): report the fault-free cost
	// of the retry layer against its <1% acceptance target. The modeled
	// sim-time comparison is deterministic, keeping this document
	// byte-stable across regenerations; the wall-clock CPU-side cost lives
	// in BenchmarkMemcpyPipeline's chunked vs chunked+retry modes.
	basePer, retryPer, err := retrySimOverhead()
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Fault injection and session recovery (`+"`make chaos` / `make soak`"+`)**: a
  deterministic fault layer (internal/faults, transport.FaultyConn) injects
  connection resets, truncated frames, stalls, partial writes and latency
  spikes at scripted or seeded operation indices, and the client heals
  through them: idempotent calls retry with exponential backoff while the
  session reattaches to its durable server state, so the MM and FFT
  workloads finish bit-exact through ~8%% fault rates (50-seed chaos sweep
  under -race; 10k-op soak at ~1%%). Fault-free cost: the durable session
  adds one 4+12-byte SessionHello exchange at open and zero wire traffic
  per subsequent call — a 64 MiB chunked copy on 40GI models %.1f sim-ms
  plain vs %.1f sim-ms retrying (%+.2f%%) — and the CPU-side bookkeeping
  sits below benchmark noise on a loopback socket (tcp/chunked vs
  tcp/chunked+retry in BenchmarkMemcpyPipeline; <1%% target).

`, simMS(basePer), simMS(retryPer),
		(retryPer.Seconds()/basePer.Seconds()-1)*100)

	// Live pool broker: place a mixed MM/FFT batch on three in-process
	// daemons through the real wire protocol and compare the resulting
	// makespan with the cluster simulator's list-scheduling prediction.
	live, err := brokerLiveResult()
	if err != nil {
		return err
	}
	counts := make([]int, 3)
	for _, p := range live.Placements {
		counts[p]++
	}
	fmt.Fprintf(sb, `- **Live GPU pool broker (internal/broker, `+"`make pool`"+`)**: a client-side
  broker federates several rcudad servers behind one Runtime — health
  probes over a StatsQuery protocol op feed least-loaded, round-robin, or
  network-aware placement, busy servers spill to the next-best endpoint,
  and a session lost mid-job is replayed on another server. Placing the
  sizing study's job mix (%d MM/FFT jobs) on three live in-process daemons
  under least-loaded yields a %0.3f ms makespan against the cluster
  simulator's %0.3f ms prediction (%+.2f%%, asserted under 5%% in
  TestLiveMakespanMatchesPrediction; placements %v across the servers) —
  the live system lands on the offline model's schedule, with the residual
  being real wire framing versus the analytic transfer estimate. Killing
  one of three servers mid-batch leaves every job's result bit-identical
  to a local run, with each extra invocation accounted as exactly one
  failover (TestChaosKillServerMidBatch, under -race).

`, len(live.Placements), simMS(live.Makespan), simMS(live.Predicted),
		live.Delta()*100, counts)

	// API-call batching + query caching: run the latency-bound DNN
	// inference loop batched and unbatched over both testbed links. The
	// sim clock makes the numbers deterministic, and bit-exactness across
	// modes is re-verified on every regeneration.
	inf, err := batchedInferenceResults()
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **API-call batching + query caching (rcuda.WithBatching, `+"`make bench-batch`"+`)**:
  fire-and-forget calls (async copies, kernel launches, event records,
  memsets) coalesce into one wire frame that flushes at the next
  synchronizing call, and immutable device-query replies are cached for
  the lifetime of the connection. A %d-layer dense inference loop serving
  %d requests — %d round trips per request unbatched — runs %.2fx faster
  on GigaE (%.1f → %.1f sim-ms) and %.2fx on 40GI (%.1f → %.1f sim-ms),
  with bit-identical outputs in all four cells (digest %016x) and the
  analytic schedule in internal/perfmodel pinning the wire exactly
  (TestInferenceModelCrossValidation: 0.00%% error both directions). The
  frame byte cap defaults to %d KiB because a frame past GigaE's
  small-message regime (~21 KB) pays the same TCP-window excess that
  bites chunking and pipelining above — batching must stay small to win.

`, inf.layers, inf.requests, inf.unbatchedPerReq,
		inf.geUnbatched.Seconds()/inf.geBatched.Seconds(),
		simMS(inf.geUnbatched), simMS(inf.geBatched),
		inf.ibUnbatched.Seconds()/inf.ibBatched.Seconds(),
		simMS(inf.ibUnbatched), simMS(inf.ibBatched),
		inf.digest, rcuda.DefaultBatchBytes>>10)

	// Scale harness + elastic autoscaling: a virtual-clock run through the
	// broker's real Placer with chaos kills, deterministic from its seed.
	scale, err := loadgen.Run(loadgen.Config{
		Seed:     12,
		Sessions: 50_000,
		Arrival:  loadgen.BurstyOnOff,
		Rate:     25_000,
		Classes: []loadgen.Class{
			{Name: "train", Weight: 1, HoldMean: 40 * time.Millisecond, Durable: true},
			{Name: "infer", Weight: 3, HoldMean: 8 * time.Millisecond, Durable: false},
		},
		InitialDaemons: 4,
		DaemonCapacity: 64,
		Autoscale: &broker.AutoscalerConfig{
			Min: 4, Max: 48, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
		},
		FaultPlan: faults.Seeded(13, faults.Config{ResetRate: 0.003, StallRate: 0.01}),
	})
	if err != nil {
		return err
	}
	if scale.LostDurable != 0 {
		return fmt.Errorf("report: scale run lost %d durable sessions", scale.LostDurable)
	}
	scaleDown, classes, err := placementAccountingRuns()
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Million-session scale harness + elastic autoscaling (internal/loadgen,
  `+"`make bench-scale`"+`)**: a goroutine-free event loop (des.EventLoop) drives
  simulated client sessions through the broker's real Placer — the same
  placement, spill, stampede-guard, and failover code the live pool runs —
  with seeded Poisson or bursty ON/OFF arrivals, while broker.Autoscaler
  (target-occupancy control with hysteresis and cooldown) grows and
  shrinks the simulated daemon fleet through a ScaleDriver that only
  retires empty daemons. %d bursty sessions with seeded daemon faults
  place at %.0f sessions/s of virtual time (p99 queue wait %.1f ms), the
  fleet tracks the bursts %d→%d daemons and hands them back (%d
  retirements), and the %d injected faults (crashes and stalls) cost %d
  failovers and %d lost best-effort sessions, every one accounted —
  zero durable sessions lost, re-asserted on every regeneration and at
  10^5–10^6 scale in CI and the nightly run.
  A million-session run completes in ~2 s of wall time and is
  byte-reproducible from its seed (BENCH_loadscale.json).
  BENCH_loadscale.json's `+"`scale-down-migrate`"+` row reported 908143 spills for
  10000 sessions while every refused attempt, and every arrival behind a
  blocked head, re-walked the full fleet; with one ranking per placement,
  full marks and a blocked head (DESIGN.md §17) the same run reports %d
  with every other number unchanged, and that remainder is real: under
  saturation each completion frees one slot and the next session in line
  walks the still-full fleet once before blocking, the ranking runs on
  gauges up to one 50 ms probe period old, and every probe clears the
  marks.
  Its `+"`scale-100k-classes`"+` row reports the same p50/p99 placement wait for
  all three classes (%.1f / %.1f ms here) because that wait is class-blind
  by construction — the fleet queue is one FIFO and a session is placed
  the instant any daemon has room, so the class and the policy only choose
  which daemon: the same run under least-loaded reproduces every class's
  wait distribution to the nanosecond (checked on every regeneration;
  per-class means %.1f / %.1f / %.1f µs differ by sampling only).

`, scale.Sessions, scale.PlacedPerSec, float64(scale.QueueWaitP99.Microseconds())/1000,
		minDaemons(scale), scale.PeakDaemons, scale.Pool.Retirements,
		scale.Faults, scale.Pool.Failovers, scale.LostNonDurable,
		scaleDown.Pool.Spills,
		simMS(classes.QueueWaitP50), simMS(classes.QueueWaitP99),
		simUS(classes.Classes[0].WaitMean), simUS(classes.Classes[1].WaitMean), simUS(classes.Classes[2].WaitMean))

	// Per-device WFQ scheduler: the starvation scenario re-run live (the
	// same mix BENCH_sched.json commits), so the document can only print
	// numbers the run just verified.
	fifoRes, wfqRes := starvationRuns()
	fifoP99 := classWaitP99(fifoRes, sched.Realtime)
	wfqP99 := classWaitP99(wfqRes, sched.Realtime)
	if wfqP99 <= 0 || fifoP99 < 5*wfqP99 {
		return fmt.Errorf("report: starvation scenario improvement collapsed (fifo %v, wfq %v)", fifoP99, wfqP99)
	}
	fmt.Fprintf(sb, `- **Per-device WFQ scheduler with priority classes (internal/sched,
  `+"`make bench-sched`"+`)**: the daemon's per-device dispatch runs through a
  virtual-time weighted-fair-queueing queue with realtime > batch >
  besteffort classes, preempting only at op boundaries so bit-exactness
  is untouched. In the starvation scenario — one batch tenant keeping a
  64-deep async pipeline on the device while 8 realtime tenants fire
  sporadic small launches — FIFO makes every realtime op queue behind
  the whole pipeline (p99 wait %.1f ms); WFQ's class weights lift the
  realtime class past the backlog at the next boundary (p99 %.2f ms), a
  %.0fx improvement at %.2f%% aggregate-throughput difference (%d vs %d
  ops served). Per-class queue waits surface in StatsSnapshot and the
  stats probe's class block, which the broker's class-aware policy ranks
  for placement; deterministic from its seed (BENCH_sched.json).

`, float64(fifoP99.Microseconds())/1000, float64(wfqP99.Microseconds())/1000,
		float64(fifoP99)/float64(wfqP99),
		throughputDeltaPct(fifoRes, wfqRes), fifoRes.TotalServed, wfqRes.TotalServed)
	return nil
}

// placementAccountingRuns re-runs the two BENCH_loadscale.json scenarios
// whose numbers needed explaining — scale-down-migrate's spill count and
// scale-100k-classes' identical per-class waits — and verifies the
// explanation the document gives for the second: per-class percentiles
// equal the fleet's, and the same run under least-loaded has the same
// waits exactly.
func placementAccountingRuns() (scaleDown, classes *loadgen.Result, err error) {
	scaleDown, err = loadgen.Run(loadgen.Config{
		Seed: 5, Sessions: 10_000, Arrival: loadgen.BurstyOnOff, Rate: 6_000,
		BurstOnMean: 400 * time.Millisecond, BurstOffMean: 400 * time.Millisecond,
		BurstFactor:    6,
		Classes:        []loadgen.Class{{Name: "train", Weight: 1, HoldMean: 120 * time.Millisecond, Durable: true}},
		InitialDaemons: 2, DaemonCapacity: 32,
		Autoscale: &broker.AutoscalerConfig{
			Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 100 * time.Millisecond,
			DownThreshold: 0.6,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	classMix := func(policy broker.Policy) (*loadgen.Result, error) {
		return loadgen.Run(loadgen.Config{
			Seed: 6, Sessions: 100_000, Arrival: loadgen.Poisson, Rate: 40_000,
			Classes: []loadgen.Class{
				{Name: "rt", Weight: 1, HoldMean: 5 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassRealtime},
				{Name: "batch", Weight: 2, HoldMean: 40 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassBatch},
				{Name: "scavenge", Weight: 1, HoldMean: 20 * time.Millisecond, Durable: false, SchedClass: protocol.SchedClassBestEffort},
			},
			Policy:         policy,
			InitialDaemons: 4, DaemonCapacity: 64,
			Autoscale: &broker.AutoscalerConfig{
				Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
			},
		})
	}
	classes, err = classMix(broker.ClassAware)
	if err != nil {
		return nil, nil, err
	}
	blind, err := classMix(broker.LeastLoaded)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range classes.Classes {
		if c.WaitP50 != classes.QueueWaitP50 || c.WaitP99 != classes.QueueWaitP99 {
			return nil, nil, fmt.Errorf("report: class %s placement wait differs from the fleet's: the queue is no longer class-blind", c.Name)
		}
		if b := blind.Classes[i]; c.WaitP99 != b.WaitP99 || c.WaitMax != b.WaitMax || c.WaitMean != b.WaitMean {
			return nil, nil, fmt.Errorf("report: class %s placement wait depends on the policy (%v vs %v)", c.Name, c.WaitMean, b.WaitMean)
		}
	}
	return scaleDown, classes, nil
}

// starvationRuns executes the headline scheduler scenario under both
// policies: one saturating batch pipeline vs eight sporadic realtime
// tenants on one device.
func starvationRuns() (fifo, wfq *sched.SimResult) {
	mix := func() []sched.TenantSpec {
		ts := []sched.TenantSpec{{
			Name: "bulk", Class: sched.Batch, Weight: 1,
			OpCost: 500 * time.Microsecond, Backlog: 64,
		}}
		for i := 0; i < 8; i++ {
			ts = append(ts, sched.TenantSpec{
				Name: fmt.Sprintf("rt-%d", i), Class: sched.Realtime, Weight: 1,
				OpCost: 50 * time.Microsecond, MeanGap: 2 * time.Millisecond,
			})
		}
		return ts
	}
	base := sched.SimConfig{Seed: 7, Duration: 5 * time.Second}
	fifoCfg, wfqCfg := base, base
	fifoCfg.Policy, fifoCfg.Tenants = sched.FIFO, mix()
	wfqCfg.Policy, wfqCfg.Tenants = sched.WFQ, mix()
	return sched.Simulate(fifoCfg), sched.Simulate(wfqCfg)
}

// classWaitP99 extracts one class's p99 queue wait from a sim run.
func classWaitP99(r *sched.SimResult, class sched.Class) time.Duration {
	for _, c := range r.Classes {
		if c.Class == class {
			return c.WaitP99
		}
	}
	return 0
}

// throughputDeltaPct is |wfq-fifo|/fifo over total served ops, percent.
func throughputDeltaPct(fifo, wfq *sched.SimResult) float64 {
	d := float64(int64(wfq.TotalServed) - int64(fifo.TotalServed))
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(fifo.TotalServed)
}

// minDaemons is the smallest fleet size the trajectory visited.
func minDaemons(r *loadgen.Result) int {
	if len(r.Trajectory) == 0 {
		return 0
	}
	min := r.Trajectory[0].Daemons
	for _, s := range r.Trajectory {
		if s.Daemons < min {
			min = s.Daemons
		}
	}
	return min
}

// inferenceSummary carries the deterministic batched-vs-unbatched numbers
// of the DNN inference workload for the extensions section.
type inferenceSummary struct {
	layers, requests, unbatchedPerReq int
	geUnbatched, geBatched            time.Duration
	ibUnbatched, ibBatched            time.Duration
	digest                            uint64
}

// batchedInferenceResults runs the inference loop in all four
// (network, mode) cells and checks the outputs digest-identical, so the
// generated document can only print numbers the run just verified.
func batchedInferenceResults() (inferenceSummary, error) {
	s := inferenceSummary{
		layers:   workload.DefaultInferenceLayers,
		requests: workload.DefaultInferenceRequests,
	}
	// Unbatched round trips per request: one properties poll, one async
	// input copy, one launch per layer, event record + synchronize, the
	// default single event query, and the result download.
	s.unbatchedPerReq = 1 + 1 + s.layers + 1 + 1 + workload.DefaultInferencePolls + 1
	cells := []struct {
		netName string
		batched bool
		out     *time.Duration
	}{
		{"GigaE", false, &s.geUnbatched}, {"GigaE", true, &s.geBatched},
		{"40GI", false, &s.ibUnbatched}, {"40GI", true, &s.ibBatched},
	}
	for i, cell := range cells {
		link, err := netsim.ByName(cell.netName)
		if err != nil {
			return s, err
		}
		rep, err := workload.RunInference(workload.InferenceOptions{Link: link, Batched: cell.batched})
		if err != nil {
			return s, err
		}
		if !rep.Verified {
			return s, fmt.Errorf("inference %s batched=%v: not bit-exact", cell.netName, cell.batched)
		}
		if i == 0 {
			s.digest = rep.Digest
		} else if rep.Digest != s.digest {
			return s, fmt.Errorf("inference %s batched=%v: digest %016x differs from %016x",
				cell.netName, cell.batched, rep.Digest, s.digest)
		}
		*cell.out = rep.Elapsed
	}
	return s, nil
}

// brokerLiveResult runs the live-vs-predicted broker experiment on the same
// deterministic job mix the broker's acceptance test uses, so the numbers
// here are the tested ones.
func brokerLiveResult() (broker.LiveResult, error) {
	sizes := []struct {
		cs   calib.CaseStudy
		size int
	}{
		{calib.MM, 128}, {calib.FFT, 16}, {calib.MM, 64},
		{calib.FFT, 32}, {calib.MM, 128}, {calib.MM, 48},
		{calib.FFT, 16}, {calib.MM, 96}, {calib.FFT, 8},
	}
	jobs := make([]broker.SimJob, len(sizes))
	for i, s := range sizes {
		jobs[i] = broker.SimJob{ID: i, CS: s.cs, Size: s.size}
	}
	return broker.SimulateLive(netsim.IB40G(), 3, jobs, broker.LeastLoaded)
}

// retrySimOverhead reruns chunkedMemcpyTimes' 64 MiB copy on 40GI with the
// retry/reconnect layer enabled and returns both modeled times. On a
// fault-free connection the retry layer adds no wire traffic after the
// one-off session hello (which precedes the measured window), so the two
// times must come out identical — the comparison pins that claim in the
// generated document deterministically.
func retrySimOverhead() (plain, retrying time.Duration, err error) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return 0, 0, err
	}
	img, err := mod.Binary()
	if err != nil {
		return 0, 0, err
	}
	link := netsim.IB40G()
	const size = 64 << 20
	run := func(retry bool) (time.Duration, error) {
		clk := vclock.NewSim()
		dev := gpu.New(gpu.Config{Clock: clk})
		srv := rcuda.NewServer(dev)
		cliEnd, srvEnd := transport.Pipe(link, clk, nil)
		go func() { _ = srv.ServeConn(srvEnd) }()
		opts := []rcuda.ClientOption{rcuda.WithChunkedTransfers(1, protocol.DefaultChunkSize)}
		if retry {
			opts = append(opts,
				rcuda.WithRetry(4, 200*time.Microsecond),
				rcuda.WithReconnect(func() (transport.Conn, error) {
					c2, s2 := transport.Pipe(link, clk, nil)
					go func() { _ = srv.ServeConn(s2) }()
					return c2, nil
				}))
		}
		client, err := rcuda.Open(cliEnd, img, opts...)
		if err != nil {
			return 0, err
		}
		defer client.Close()
		ptr, err := client.Malloc(size)
		if err != nil {
			return 0, err
		}
		start := clk.Now()
		if err := client.MemcpyToDevice(ptr, make([]byte, size)); err != nil {
			return 0, err
		}
		return clk.Now() - start, nil
	}
	if plain, err = run(false); err != nil {
		return 0, 0, err
	}
	if retrying, err = run(true); err != nil {
		return 0, 0, err
	}
	return plain, retrying, nil
}

func simMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func simUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// chunkedMemcpyTimes measures one 64 MiB MemcpyToDevice through the full
// client/server middleware over the given simulated link, first with the
// paper's single-frame protocol and then with chunked transfers enabled.
// The setup mirrors BenchmarkMemcpyPipeline's sim sub-benchmarks.
func chunkedMemcpyTimes(link *netsim.Link) (legacy, chunked time.Duration, err error) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return 0, 0, err
	}
	img, err := mod.Binary()
	if err != nil {
		return 0, 0, err
	}
	const size = 64 << 20
	run := func(opts ...rcuda.ClientOption) (time.Duration, error) {
		clk := vclock.NewSim()
		dev := gpu.New(gpu.Config{Clock: clk})
		srv := rcuda.NewServer(dev)
		cliEnd, srvEnd := transport.Pipe(link, clk, nil)
		go func() { _ = srv.ServeConn(srvEnd) }()
		client, err := rcuda.Open(cliEnd, img, opts...)
		if err != nil {
			return 0, err
		}
		defer client.Close()
		ptr, err := client.Malloc(size)
		if err != nil {
			return 0, err
		}
		start := clk.Now()
		if err := client.MemcpyToDevice(ptr, make([]byte, size)); err != nil {
			return 0, err
		}
		return clk.Now() - start, nil
	}
	if legacy, err = run(); err != nil {
		return 0, 0, err
	}
	if chunked, err = run(rcuda.WithChunkedTransfers(1, protocol.DefaultChunkSize)); err != nil {
		return 0, 0, err
	}
	return legacy, chunked, nil
}

func (c Config) expTableI(sb *strings.Builder) {
	sb.WriteString("## Table I — remote API message breakdown\n\n")
	sb.WriteString(`Derived from the protocol encoders; all fixed sizes match the paper
(Initialization x+4/12, cudaMalloc 8/8, cudaMemcpy x+20/4 and 20/x+4,
cudaLaunch x+44/4, cudaFree 8/4; asserted byte-for-byte in
internal/protocol tests). One engineering deviation: our launch message's
variable region carries the packed kernel parameters after the
NUL-terminated kernel name (the "Parameters offset" field locates them),
so the MM launch is 68 bytes instead of the paper's 52. Both sizes sit on
the flat region of the small-message latency curve, so transfer-time
estimates are unaffected.

`)
}

func (c Config) expFigures34(sb *strings.Builder) error {
	sb.WriteString("## Figures 3 and 4 — network characterization\n\n")
	sb.WriteString("| network | quantity | paper | reproduced |\n|---|---|---|---|\n")
	for _, link := range netsim.Testbed() {
		pp := &netsim.PingPong{Link: link, Noise: c.noise(21)}
		pts := pp.MeasureLarge(largeSizes, 100)
		fit, err := netsim.FitLarge(pts)
		if err != nil {
			return err
		}
		reg, _ := link.Regression()
		fmt.Fprintf(sb, "| %s | large-payload fit (ms/MB) | %.1f·n %+.1f | %.2f·n %+.2f |\n",
			link.Name(), reg.Slope, reg.Intercept, fit.Slope, fit.Intercept)
		fmt.Fprintf(sb, "| %s | effective bandwidth (MB/s) | %.1f | %.1f |\n",
			link.Name(), link.Bandwidth(), netsim.EffectiveBandwidth(fit))
		fmt.Fprintf(sb, "| %s | correlation r | 1.0 | %.4f |\n", link.Name(), fit.R)
	}
	tcp := netsim.GigaETCPModel()
	moduleOneWay, err := tcp.OneWay(21490)
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `
Small-message latencies interpolate the paper's own anchor points
(22.2–338.7 µs GigaE, 20.0–80.9 µs 40GI), exact at every anchor. The
reproduced GigaE intercept absorbs the modeled TCP-window excess (~16–23 ms
on 1–64 MB payloads), which the paper's minimum-of-100 fit filtered out;
the slope — and hence the bandwidth every estimate uses — matches.

A mechanistic TCP slow-start model (netsim.TCPMicroModel: 22.2 µs base
latency, 1460-byte MSS, initial window 1, doubling per flight)
independently *predicts* the paper's 21,490-byte module-transfer anchor at
%.1f µs against the measured 338.7 µs — 15 segments in 4 flights, 3 RTT
stalls — explaining the "non-linear time response" the paper attributes to
the TCP window.

`, moduleOneWay.Seconds()*1e6)
	return nil
}

func (c Config) expTableII(sb *strings.Builder) {
	sb.WriteString("## Table II — per-call transfer estimates\n\n")
	type check struct {
		what        string
		paper, ours float64 // µs
	}
	ge, ib := netsim.GigaE(), netsim.IB40G()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	mm := perfmodel.TableII(calib.MM, 4096, ge)
	mmIB := perfmodel.TableII(calib.MM, 4096, ib)
	fft := perfmodel.TableII(calib.FFT, 2048, ge)
	checks := []check{
		{"MM init send, GigaE", 338.7, us(mm[0].SendTime)},
		{"MM init recv, GigaE", 44.4, us(mm[0].RecvTime)},
		{"MM cudaMalloc send, GigaE", 22.2, us(mm[1].SendTime)},
		{"MM init send, 40GI", 80.9, us(mmIB[0].SendTime)},
		{"MM cudaMalloc send, 40GI", 27.9, us(mmIB[1].SendTime)},
		{"FFT init send, GigaE", 233.9, us(fft[0].SendTime)},
		{"MM memcpy(to device) @4096, GigaE (ms)", 569.4 * 1e3, us(mm[2].SendTime)},
	}
	sb.WriteString("| call | paper (µs) | reproduced (µs) |\n|---|---|---|\n")
	for _, ch := range checks {
		fmt.Fprintf(sb, "| %s | %.1f | %.1f |\n", ch.what, ch.paper, ch.ours)
	}
	sb.WriteString("\n")
}

func (c Config) expTablesIIIandV(sb *strings.Builder) {
	sb.WriteString("## Tables III and V — per-copy transfer times\n\n")
	var maxRel float64
	var cells int
	paperIII := map[string]map[int][2]float64{ // net -> size -> {MM ms, unused}
		"GigaE": {4096: {569.4}, 6144: {1281.1}, 8192: {2277.6}, 10240: {3558.7},
			12288: {5124.6}, 14336: {6975.1}, 16384: {9110.3}, 18432: {11530.2}},
		"40GI": {4096: {46.8}, 6144: {105.3}, 8192: {187.3}, 10240: {292.6},
			12288: {421.3}, 14336: {573.5}, 16384: {749.0}, 18432: {948.0}},
		"10GE": {4096: {72.7}, 18432: {1472.7}},
		"10GI": {4096: {66.0}, 18432: {1336.1}},
		"Myr":  {4096: {85.3}, 18432: {1728.0}},
		"F-HT": {4096: {44.4}, 18432: {898.8}},
		"A-HT": {4096: {22.2}, 18432: {449.4}},
	}
	for netName, sizes := range paperIII {
		link, err := netsim.ByName(netName)
		if err != nil {
			continue
		}
		for size, want := range sizes {
			got := perfmodel.TransferTime(link, calib.MM, size).Seconds() * 1e3
			rel := math.Abs(got-want[0]) / want[0]
			if rel > maxRel {
				maxRel = rel
			}
			cells++
		}
	}
	fmt.Fprintf(sb, "Bandwidth-only arithmetic; across %d spot-checked MM cells the maximum\nrelative deviation from the printed values is %.2f%% (rounding in the paper).\n\n",
		cells, maxRel*100)
}

func (c Config) expTableIV(sb *strings.Builder) error {
	sb.WriteString("## Table IV — cross-validation of the estimation models\n\n")
	ge, ib := netsim.GigaE(), netsim.IB40G()
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		geMeas, err := c.measureSeries(cs, ge, 1)
		if err != nil {
			return err
		}
		ibMeas, err := c.measureSeries(cs, ib, 2)
		if err != nil {
			return err
		}
		fwd, err := perfmodel.CrossValidate(cs, ge, ib, geMeas, ibMeas)
		if err != nil {
			return err
		}
		rev, err := perfmodel.CrossValidate(cs, ib, ge, ibMeas, geMeas)
		if err != nil {
			return err
		}
		fmt.Fprintf(sb, "### %s (times in %s)\n\n", cs, unitName(cs))
		sb.WriteString("| size | err% GigaE model (paper) | err% GigaE model (ours) | err% 40GI model (paper) | err% 40GI model (ours) |\n|---|---|---|---|---|\n")
		for i, row := range fwd {
			pf, _ := calib.PaperCrossError(cs, "GigaE", row.Size)
			pr, _ := calib.PaperCrossError(cs, "40GI", row.Size)
			fmt.Fprintf(sb, "| %d | %.2f | %.2f | %.2f | %.2f |\n",
				row.Size, pf, row.RelativeErrorPc, pr, rev[i].RelativeErrorPc)
		}
		sb.WriteString("\n")
	}
	sb.WriteString(`Shape reproduced: MM errors stay within a few percent (paper: |err| ≤ 2.2%),
while FFT errors are large at small batches and shrink with transfer size
(paper: 33.95% → 5.77% on the GigaE model, −16.0% → −2.25% on the 40GI
model) — the signature of the GigaE TCP-window excess on 16–128 MB
transfers that the linear model folds into its fixed time.

`)
	return nil
}

func (c Config) expTableVI(sb *strings.Builder, data map[calib.CaseStudy]TableVIResult) {
	sb.WriteString("## Table VI — projections onto the HPC networks\n\n")
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		d := data[cs]
		var worst, sum float64
		var n int
		for _, netName := range calib.TargetNetworks() {
			for _, size := range calib.Sizes(cs) {
				for _, m := range []struct {
					model string
					got   time.Duration
				}{
					{"GigaE", d.EstGigaEModel[netName][size]},
					{"40GI", d.Est40GIModel[netName][size]},
				} {
					want, ok := calib.PaperTargetEstimate(cs, m.model, netName, size)
					if !ok {
						continue
					}
					rel := math.Abs(m.got.Seconds()-want.Seconds()) / want.Seconds()
					sum += rel
					n++
					if rel > worst {
						worst = rel
					}
				}
			}
		}
		fmt.Fprintf(sb, "- **%s**: %d estimated cells (5 networks × %d sizes × 2 models); mean |Δ| vs. paper %.2f%%, worst %.2f%%.\n",
			cs, n, len(calib.Sizes(cs)), sum/float64(n)*100, worst*100)
	}
	sb.WriteString("\n")
}

func (c Config) expFigures56(sb *strings.Builder, data map[calib.CaseStudy]TableVIResult) {
	sb.WriteString("## Figures 5 and 6 — qualitative shape\n\n")
	mm, fft := data[calib.MM], data[calib.FFT]
	checks := []struct {
		name string
		ok   bool
	}{
		{"MM: local GPU beats CPU for m ≥ 6144", mm.GPU[6144] < mm.CPU[6144] && mm.GPU[18432] < mm.CPU[18432]},
		{"MM: every HPC-network estimate beats CPU at m = 18432",
			allBeat(mm.EstGigaEModel, mm.CPU, 18432) && allBeat(mm.Est40GIModel, mm.CPU, 18432)},
		{"MM: GigaE remoting roughly doubles the 40GI time at m = 4096",
			ratioIn(mm.MeasuredGigaE[4096], mm.Measured40GI[4096], 1.5, 2.3)},
		{"MM: remote 40GI beats the local GPU at m = 4096 (pre-initialized context)",
			mm.Measured40GI[4096] < mm.GPU[4096]},
		{"FFT: CPU beats the local GPU at every batch", fft.CPU[2048] < fft.GPU[2048] && fft.CPU[16384] < fft.GPU[16384]},
		{"FFT: CPU beats every remote estimate", allLose(fft.Est40GIModel, fft.CPU, 2048) && allLose(fft.EstGigaEModel, fft.CPU, 16384)},
		{"FFT: GigaE remoting is the slowest configuration",
			fft.MeasuredGigaE[8192] > fft.Measured40GI[8192] && fft.MeasuredGigaE[8192] > fft.EstGigaEModel["Myr"][8192]},
	}
	sb.WriteString("| claim | holds |\n|---|---|\n")
	for _, ch := range checks {
		fmt.Fprintf(sb, "| %s | %v |\n", ch.name, ch.ok)
	}
	fmt.Fprintf(sb, "\nFull series: `go run ./cmd/rcuda-repro -figure 5` and `-figure 6`.\n")
	_ = workload.PaperRepetitions
}

func allBeat(est map[string]map[int]time.Duration, base map[int]time.Duration, size int) bool {
	for _, series := range est {
		if series[size] >= base[size] {
			return false
		}
	}
	return true
}

func allLose(est map[string]map[int]time.Duration, base map[int]time.Duration, size int) bool {
	for _, series := range est {
		if series[size] <= base[size] {
			return false
		}
	}
	return true
}

func ratioIn(a, b time.Duration, lo, hi float64) bool {
	if b == 0 {
		return false
	}
	r := a.Seconds() / b.Seconds()
	return r >= lo && r <= hi
}
