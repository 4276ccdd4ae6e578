package perfmodel

import (
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
)

func inferenceSpec(batched bool) InferenceSpec {
	return InferenceSpec{
		ModuleBytes: 256,
		Layers:      24,
		Requests:    32,
		Polls:       1,
		Batched:     batched,
		DeviceName:  "Tesla C1060 (simulated)",
	}
}

// TestInferenceScheduleShape pins the message algebra of both schedules:
// the batched one replaces each request's 26 fire-and-forget exchanges and
// the synchronization that follows them with one frame, drops the event
// polls after the synchronization and all but the first properties poll.
func TestInferenceScheduleShape(t *testing.T) {
	spec := inferenceSpec(false)
	setupTeardown := 1 + (spec.Layers+2)*2 + spec.Layers + 2 + 2 + 1 // init, mallocs+frees, uploads, stream+event create/destroy, finalize
	perReq := 1 + 1 + spec.Layers + 1 + 1 + spec.Polls + 1           // props, copy, launches, record, sync, polls, readback
	unbatched := InferenceSchedule(spec)
	if want := setupTeardown + spec.Requests*perReq; len(unbatched) != want {
		t.Fatalf("unbatched schedule has %d messages, want %d", len(unbatched), want)
	}

	spec.Batched = true
	batched := InferenceSchedule(spec)
	perReqBatched := 1 + 1 // frame closed by the sync, readback
	if want := setupTeardown + 1 + spec.Requests*perReqBatched; len(batched) != want {
		t.Fatalf("batched schedule has %d messages, want %d", len(batched), want)
	}

	// Batching coalesces round trips; it must not invent or drop payload.
	// Frame and length-prefix framing is the only send-side growth, and
	// the per-sub-op response codes the only receive-side growth.
	var frames int
	for _, m := range batched {
		if m.Op == protocol.OpEventSynchronize {
			t.Fatal("the batched schedule synchronizes in an exchange of its own")
		}
		if m.Op == protocol.OpEventQuery {
			t.Fatal("the batched schedule polls the event it synchronized over the wire")
		}
		if m.Op == protocol.OpBatch {
			frames++
			subs := spec.Layers + 3
			if want := int64(16 + (4 + 24 + inferenceMatrixBytes) + spec.Layers*(4+int(launchWireBytes())) + (4 + 12) + (4 + 8)); m.SendBytes != want {
				t.Errorf("batch frame carries %d bytes, want %d", m.SendBytes, want)
			}
			if want := int64(8 + 4*subs); m.RecvBytes != want {
				t.Errorf("batch response carries %d bytes, want %d", m.RecvBytes, want)
			}
			// The closing synchronization waits out the frame's device work.
			if want := calib.PCIeTime(calib.MM, InferenceDim) + time.Duration(spec.Layers)*calib.KernelTime(calib.MM, InferenceDim); m.Wait != want {
				t.Errorf("batch frame waits %v on the device, want %v", m.Wait, want)
			}
		} else if m.Wait != 0 {
			t.Errorf("%v waits %v on the device; only a frame's closing synchronization does", m.Op, m.Wait)
		}
	}
	for _, m := range unbatched {
		if m.Wait != 0 {
			t.Errorf("unbatched %v waits %v on the device; its own flight hides the work", m.Op, m.Wait)
		}
	}
	if frames != spec.Requests {
		t.Fatalf("batched schedule has %d frames, want %d", frames, spec.Requests)
	}
}

// TestInferenceNetTimeBatchedWins asserts the modeled headline: at both
// testbed networks the batched schedule's wire time beats the unbatched
// one, by at least 3x at GigaE where round trips are most expensive
// relative to the work.
func TestInferenceNetTimeBatchedWins(t *testing.T) {
	for _, link := range netsim.Testbed() {
		speedup := InferenceSpeedup(link, inferenceSpec(false))
		t.Logf("%s: modeled batched speedup %.2fx", link.Name(), speedup)
		if speedup <= 1 {
			t.Errorf("%s: batching does not pay: %.2fx", link.Name(), speedup)
		}
		if link.Name() == "GigaE" && speedup < 3 {
			t.Errorf("GigaE modeled speedup %.2fx, want >= 3x", speedup)
		}
	}
}

// TestBuildInferenceFixedTime checks the fixed-time extraction contract:
// zero residual is legitimate (the loop's device work hides behind wire
// time), negative is rejected, and estimation adds the target's wire time
// back on.
func TestBuildInferenceFixedTime(t *testing.T) {
	spec := inferenceSpec(true)
	gige, ib := netsim.GigaE(), netsim.IB40G()
	net := InferenceNetTime(gige, spec)

	if _, err := BuildInference(spec, gige, net-time.Nanosecond); err == nil {
		t.Fatal("measurement below its own wire time accepted")
	}
	m, err := BuildInference(spec, gige, net)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fixed() != 0 {
		t.Fatalf("fixed time %v, want 0", m.Fixed())
	}
	if got, want := m.Estimate(ib), InferenceNetTime(ib, spec); got != want {
		t.Fatalf("estimate %v, want the target's wire time %v", got, want)
	}

	residual := 250 * time.Microsecond
	m, err = BuildInference(spec, gige, net+residual)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fixed() != residual {
		t.Fatalf("fixed time %v, want %v", m.Fixed(), residual)
	}
	if got, want := m.Estimate(ib), InferenceNetTime(ib, spec)+residual; got != want {
		t.Fatalf("estimate %v, want %v", got, want)
	}
}

// TestInferenceTotalsConsistent ties the totals helper to the schedule it
// summarizes.
func TestInferenceTotalsConsistent(t *testing.T) {
	for _, batched := range []bool{false, true} {
		spec := inferenceSpec(batched)
		msgs, send, recv := InferenceTotals(spec)
		sched := InferenceSchedule(spec)
		if msgs != len(sched) {
			t.Fatalf("batched=%v: totals count %d messages, schedule %d", batched, msgs, len(sched))
		}
		var wantSend, wantRecv int64
		for _, m := range sched {
			wantSend += m.SendBytes
			wantRecv += m.RecvBytes
		}
		if send != wantSend || recv != wantRecv {
			t.Fatalf("batched=%v: totals %d/%d bytes, schedule sums %d/%d", batched, send, recv, wantSend, wantRecv)
		}
	}
}
