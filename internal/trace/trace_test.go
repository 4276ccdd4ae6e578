package trace

import (
	"strings"
	"testing"
	"time"

	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

func TestPhaseMapping(t *testing.T) {
	cases := map[protocol.Op]Phase{
		protocol.OpInit:              protocol.PhaseInit,
		protocol.OpMalloc:            protocol.PhaseAlloc,
		protocol.OpMemcpyToDevice:    protocol.PhaseInput,
		protocol.OpLaunch:            protocol.PhaseKernel,
		protocol.OpDeviceSynchronize: protocol.PhaseKernel,
		protocol.OpMemcpyToHost:      protocol.PhaseOutput,
		protocol.OpFree:              protocol.PhaseRelease,
		protocol.OpFinalize:          protocol.PhaseFinalize,
	}
	for op, want := range cases {
		if got := PhaseOf(op); got != want {
			t.Errorf("PhaseOf(%v) = %v, want %v", op, got, want)
		}
	}
}

// TestAsyncRunIsNotFinalization: a traced run that uses the operations added
// since the paper — a stream, asynchronous copies, a batch, events — is
// attributed to the phases its calls belong to. Before the op table every
// one of these fell through PhaseOf's default case and the whole run read
// as finalization time.
func TestAsyncRunIsNotFinalization(t *testing.T) {
	clk := vclock.NewSim()
	rec := NewRecorder(clk)
	step := func(op protocol.Op) {
		clk.Sleep(time.Millisecond)
		rec.Call(op, 8, 4)
	}
	step(protocol.OpStreamCreate)
	step(protocol.OpEventCreate)
	step(protocol.OpMemcpyToDeviceAsync)
	step(protocol.OpMemset)
	step(protocol.OpBatch)
	step(protocol.OpEventRecord)
	step(protocol.OpStreamSynchronize)
	step(protocol.OpMemcpyToHostAsync)
	step(protocol.OpEventDestroy)
	step(protocol.OpStreamDestroy)
	step(protocol.OpFinalize)

	want := map[Phase]int{
		protocol.PhaseAlloc:    2,
		protocol.PhaseInput:    2,
		protocol.PhaseKernel:   3,
		protocol.PhaseOutput:   1,
		protocol.PhaseRelease:  2,
		protocol.PhaseFinalize: 1,
	}
	for _, b := range rec.PhaseBreakdown(0) {
		if b.Calls != want[b.Phase] || b.Time != time.Duration(b.Calls)*time.Millisecond {
			t.Errorf("%v: %d calls in %v, want %d calls of 1ms each", b.Phase, b.Calls, b.Time, want[b.Phase])
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	for p := protocol.PhaseInit; p < protocol.NumPhases; p++ {
		if s := p.String(); s == "" || strings.HasPrefix(s, "Phase(") {
			t.Fatalf("phase %d has no name", p)
		}
	}
	if Phase(99).String() != "Phase(99)" {
		t.Fatal("unknown phase formatting")
	}
}

func TestRecorderTimeline(t *testing.T) {
	clk := vclock.NewSim()
	rec := NewRecorder(clk)

	clk.Sleep(10 * time.Millisecond)
	rec.Call(protocol.OpInit, 21490, 12)
	clk.Sleep(5 * time.Millisecond)
	rec.Call(protocol.OpMalloc, 8, 8)
	clk.Sleep(100 * time.Millisecond)
	rec.Call(protocol.OpMemcpyToDevice, 1<<20, 4)
	clk.Sleep(50 * time.Millisecond)
	rec.Call(protocol.OpLaunch, 68, 4)
	clk.Sleep(80 * time.Millisecond)
	rec.Call(protocol.OpMemcpyToHost, 20, 1<<20)
	clk.Sleep(time.Millisecond)
	rec.Call(protocol.OpFree, 8, 4)
	rec.Call(protocol.OpFinalize, 4, 0)

	events := rec.Events()
	if len(events) != 7 {
		t.Fatalf("recorded %d events, want 7", len(events))
	}
	if events[0].At != 10*time.Millisecond {
		t.Fatalf("first event at %v", events[0].At)
	}

	bd := rec.PhaseBreakdown(0)
	if len(bd) != int(protocol.NumPhases) {
		t.Fatalf("breakdown has %d phases", len(bd))
	}
	get := func(p Phase) Breakdown { return bd[p] }
	if got := get(protocol.PhaseInit).Time; got != 10*time.Millisecond {
		t.Fatalf("init phase %v", got)
	}
	if got := get(protocol.PhaseInput).Time; got != 100*time.Millisecond {
		t.Fatalf("input phase %v", got)
	}
	if got := get(protocol.PhaseKernel).Time; got != 50*time.Millisecond {
		t.Fatalf("kernel phase %v", got)
	}
	if got := get(protocol.PhaseOutput).Time; got != 80*time.Millisecond {
		t.Fatalf("output phase %v", got)
	}
	if get(protocol.PhaseInput).SendBytes != 1<<20 {
		t.Fatal("input bytes")
	}
	if get(protocol.PhaseOutput).RecvBytes != 1<<20 {
		t.Fatal("output bytes")
	}
	var total time.Duration
	for _, b := range bd {
		total += b.Time
	}
	if total != clk.Now() {
		t.Fatalf("phase times sum to %v, clock at %v", total, clk.Now())
	}
}

func TestRenderContainsPhasesAndOps(t *testing.T) {
	rec := NewRecorder(vclock.NewSim())
	rec.Call(protocol.OpInit, 21490, 12)
	rec.Call(protocol.OpMalloc, 8, 8)
	rec.Call(protocol.OpLaunch, 68, 4)
	out := rec.Render()
	for _, want := range []string{"Initialization", "Memory allocation", "Kernel execution", "cudaMalloc", "cudaLaunch", "21490"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyRecorder(t *testing.T) {
	rec := NewRecorder(vclock.NewSim())
	if len(rec.Events()) != 0 {
		t.Fatal("fresh recorder has events")
	}
	bd := rec.PhaseBreakdown(0)
	for _, b := range bd {
		if b.Calls != 0 || b.Time != 0 {
			t.Fatalf("empty breakdown has data: %+v", b)
		}
	}
	if out := rec.Render(); !strings.Contains(out, "Client") {
		t.Fatal("render header missing")
	}
}

func TestCSVExport(t *testing.T) {
	clk := vclock.NewSim()
	rec := NewRecorder(clk)
	clk.Sleep(time.Millisecond)
	rec.Call(protocol.OpMalloc, 8, 8)
	out := rec.CSV()
	if !strings.Contains(out, "op,phase,send_bytes,recv_bytes,completed_us") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, `"cudaMalloc","Memory allocation",8,8,1000.0`) {
		t.Fatalf("missing event row:\n%s", out)
	}
}
