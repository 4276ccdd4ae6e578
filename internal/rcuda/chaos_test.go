package rcuda

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
)

// The chaos suite runs real workloads over a TCP connection that injects
// deterministic faults, and demands the results stay bit-exact with a
// fault-free golden run. Every scenario reproduces from its script or
// seed; a failure prints the plan history, which replays the exact fault
// sequence.

// openChaosClient opens a durable retrying client whose every connection
// (initial and reconnects) shares plan. Faults can hit the open handshake
// itself, so it retries the open on a fresh connection.
func openChaosClient(t *testing.T, addr string, plan *faults.Plan, module []byte) *Client {
	t.Helper()
	dial := faultyDialer(addr, plan)
	for attempt := 0; attempt < 20; attempt++ {
		conn, err := dial()
		if err != nil {
			continue
		}
		client, err := Open(conn, module,
			WithChunkedTransfers(1024, 512),
			WithRetry(time.Second),
			WithReconnect(dial))
		if err == nil {
			return client
		}
		_ = conn.Close()
	}
	t.Fatal("could not open a client in 20 attempts")
	return nil
}

// insist re-issues a non-idempotent call that ErrSessionLost interrupted.
// Chaos workloads only insist on calls whose repetition cannot change the
// result (overwriting launches, leak-only mallocs).
func insist(t *testing.T, what string, fn func() error) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		err := fn()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrSessionLost) {
			t.Fatalf("%s: %v", what, err)
		}
	}
	t.Fatalf("%s: still failing after 20 re-issues", what)
}

// insistMalloc allocates through session-lost interruptions. A lost
// malloc may have allocated server-side; re-issuing leaks that region for
// the session's remainder, which the workload tolerates.
func insistMalloc(t *testing.T, client *Client, size uint32) cudart.DevicePtr {
	t.Helper()
	var ptr cudart.DevicePtr
	insist(t, "malloc", func() error {
		p, err := client.Malloc(size)
		if err == nil {
			ptr = p
		}
		return err
	})
	return ptr
}

// runMMWorkload drives the paper's matrix-multiply case study and returns
// the raw bytes of C. The sgemm kernel overwrites C, so a launch that is
// re-issued after ErrSessionLost cannot skew the result.
func runMMWorkload(t *testing.T, client *Client, seed int64) []byte {
	t.Helper()
	const m = 32
	rng := rand.New(rand.NewSource(seed))
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	nbytes := uint32(4 * m * m)
	aPtr := insistMalloc(t, client, nbytes)
	bPtr := insistMalloc(t, client, nbytes)
	cPtr := insistMalloc(t, client, nbytes)
	if err := client.MemcpyToDevice(aPtr, cudart.Float32Bytes(a)); err != nil {
		t.Fatalf("copy A: %v", err)
	}
	if err := client.MemcpyToDevice(bPtr, cudart.Float32Bytes(b)); err != nil {
		t.Fatalf("copy B: %v", err)
	}
	insist(t, "sgemm launch", func() error {
		return client.Launch(kernels.SgemmKernel, cudart.Dim3{X: 2, Y: 2}, cudart.Dim3{X: 16, Y: 16}, 0,
			gpu.PackParams(uint32(aPtr), uint32(bPtr), uint32(cPtr), m))
	})
	out := make([]byte, nbytes)
	if err := client.MemcpyToHost(out, cPtr); err != nil {
		t.Fatalf("copy C: %v", err)
	}
	return out
}

// runFFTWorkload drives the batched-FFT case study forward-only (a single
// overwite-free transform would not survive a double launch, so the
// launch is never insisted here — scripted scenarios place their faults
// in the bulk transfers instead) and returns the spectrum bytes.
func runFFTWorkload(t *testing.T, client *Client, seed int64) []byte {
	t.Helper()
	const batch = 4
	const points = 512
	rng := rand.New(rand.NewSource(seed))
	signal := make([]complex64, batch*points)
	for i := range signal {
		signal[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	data := cudart.Complex64Bytes(signal)
	ptr, err := client.Malloc(uint32(len(data)))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	if err := client.MemcpyToDevice(ptr, data); err != nil {
		t.Fatalf("copy signal: %v", err)
	}
	if err := client.Launch(kernels.FFTKernel, cudart.Dim3{X: batch}, cudart.Dim3{X: 64}, 0,
		gpu.PackParams(uint32(ptr), batch, 0)); err != nil {
		t.Fatalf("fft launch: %v", err)
	}
	out := make([]byte, len(data))
	if err := client.MemcpyToHost(out, ptr); err != nil {
		t.Fatalf("copy spectrum: %v", err)
	}
	return out
}

// golden runs a workload over a clean connection and returns its result.
func golden(t *testing.T, addr string, module []byte, run func(*testing.T, *Client, int64) []byte, seed int64) []byte {
	t.Helper()
	client := openChaosClient(t, addr, nil, module)
	defer client.Close()
	return run(t, client, seed)
}

// TestChaosScriptedScenarios pins one fault to a precise point in each
// workload's dialogue and checks bit-exact recovery. Operation indexing
// (see opsOpenDurable): MM with 512-byte chunks sends Begin at op 10,
// chunks at 12-19, End at 20, End ack at 21; FFT's device-to-host stream
// receives its chunks at ops 46-77.
func TestChaosScriptedScenarios(t *testing.T) {
	mm := moduleImage(t, calib.MM)
	fftMod := moduleImage(t, calib.FFT)
	cases := []struct {
		name   string
		module []byte
		run    func(*testing.T, *Client, int64) []byte
		inject faults.Injection
	}{
		{
			name: "mm/reset-during-memcpy-chunks", module: mm, run: runMMWorkload,
			inject: faults.Injection{Op: 15, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
		},
		{
			name: "mm/truncated-chunk", module: mm, run: runMMWorkload,
			inject: faults.Injection{Op: 16, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindTruncate, KeepBytes: 100}},
		},
		{
			name: "mm/stall-then-recover", module: mm, run: runMMWorkload,
			inject: faults.Injection{Op: 21, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindStall, Delay: time.Millisecond}},
		},
		{
			name: "fft/reset-during-d2h-stream", module: fftMod, run: runFFTWorkload,
			inject: faults.Injection{Op: 50, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr, cleanup := startTCPServer(t)
			defer cleanup()
			const seed = 11
			want := golden(t, addr, tc.module, tc.run, seed)

			plan := faults.Script(tc.inject)
			client := openChaosClient(t, addr, plan, tc.module)
			defer client.Close()
			got := tc.run(t, client, seed)

			if plan.Injected() == 0 {
				t.Fatalf("fault never fired; op indices drifted (history %v)", plan.History())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result diverged after recovery (faults: %v)", plan.History())
			}
			if cs := client.Stats(); cs.Recovered == 0 {
				t.Fatalf("no recovery recorded: %+v (faults: %v)", cs, plan.History())
			}
		})
	}
}

// TestChaosSeededReplaysIdentically drives the MM workload under the same
// seeded plan twice: the injected fault sequences and the results must
// match event for event — the acceptance bar for reproducing any chaos
// failure from its seed.
func TestChaosSeededReplaysIdentically(t *testing.T) {
	module := moduleImage(t, calib.MM)
	cfg := faults.Config{
		ResetRate:    0.02,
		TruncateRate: 0.02,
		StallRate:    0.01,
		LatencyRate:  0.03,
		StallDelay:   time.Millisecond,
	}
	drive := func() ([]faults.Event, []byte) {
		_, addr, cleanup := startTCPServer(t)
		defer cleanup()
		plan := faults.Seeded(21, cfg)
		client := openChaosClient(t, addr, plan, module)
		defer client.Close()
		out := runMMWorkload(t, client, 21)
		return plan.History(), out
	}
	hist1, out1 := drive()
	hist2, out2 := drive()
	if !reflect.DeepEqual(hist1, hist2) {
		t.Fatalf("same seed, different fault sequences:\n run1 %v\n run2 %v", hist1, hist2)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatal("same seed, different results")
	}
}

// TestChaosSeededSweep runs the MM workload under 50 consecutive seeds at
// ~8% fault rate; every run must finish with a bit-exact result. This is
// the flake gate the Makefile's verify target runs under -race.
func TestChaosSeededSweep(t *testing.T) {
	module := moduleImage(t, calib.MM)
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()
	want := golden(t, addr, module, runMMWorkload, 5)

	cfg := faults.Config{
		ResetRate:        0.02,
		TruncateRate:     0.02,
		StallRate:        0.01,
		PartialWriteRate: 0.02,
		LatencyRate:      0.01,
		StallDelay:       time.Millisecond,
		LatencyDelay:     50 * time.Microsecond,
	}
	injected := int64(0)
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := faults.Seeded(seed, cfg)
			client := openChaosClient(t, addr, plan, module)
			defer client.Close()
			got := runMMWorkload(t, client, 5)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d diverged (faults: %v)", seed, plan.History())
			}
			injected += plan.Injected()
		})
	}
	if injected == 0 {
		t.Fatal("50 seeds injected nothing; rates are broken")
	}
}
