package workload

import (
	"math"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

func runInference(t *testing.T, link *netsim.Link, batched bool) InferenceReport {
	t.Helper()
	rep, err := RunInference(InferenceOptions{Link: link, Batched: batched, Seed: 7})
	if err != nil {
		t.Fatalf("inference (%s, batched=%v): %v", link.Name(), batched, err)
	}
	if !rep.Verified {
		t.Fatalf("inference (%s, batched=%v): output not bit-exact against the oracle", link.Name(), batched)
	}
	return rep
}

// TestInferenceBatchedSpeedup is the optimization's acceptance test: at
// GigaE latencies the batched+cached session must finish the whole loop —
// setup and teardown included — at least 3x faster than the unbatched one,
// and produce bit-identical outputs.
func TestInferenceBatchedSpeedup(t *testing.T) {
	link := netsim.GigaE()
	plain := runInference(t, link, false)
	batched := runInference(t, link, true)

	if plain.Digest != batched.Digest {
		t.Fatalf("digest drift: unbatched %016x vs batched %016x", plain.Digest, batched.Digest)
	}
	speedup := float64(plain.Elapsed) / float64(batched.Elapsed)
	t.Logf("GigaE: unbatched %v, batched %v, speedup %.2fx (%d vs %d messages)",
		plain.Elapsed, batched.Elapsed, speedup, plain.Messages, batched.Messages)
	if speedup < 3 {
		t.Fatalf("batched speedup %.2fx at GigaE, want >= 3x", speedup)
	}
	if batched.Messages >= plain.Messages {
		t.Fatalf("batching did not reduce messages: %d vs %d", batched.Messages, plain.Messages)
	}

	// The batching and caching machinery actually carried the loop.
	// One frame per request carries its input copy, launches, and event
	// record, closed by the event synchronization.
	spec := batched.Spec
	coalesced := int64(spec.Requests * (spec.Layers + 3))
	if got, want := batched.Server.BatchFrames, int64(spec.Requests); got != want {
		t.Errorf("server executed %d batch frames, want %d", got, want)
	}
	if got := batched.Server.BatchedOps; got != coalesced {
		t.Errorf("server executed %d batched ops, want %d", got, coalesced)
	}
	if got := batched.Client.OpsCoalesced; got != coalesced {
		t.Errorf("client coalesced %d ops, want %d", got, coalesced)
	}
	// One properties poll per request: the first fills the cache, the rest
	// never reach the wire. Nor does any event poll after a synchronization.
	hits := int64(spec.Requests - 1 + spec.Requests*spec.Polls)
	if batched.Client.CacheMisses != 1 || batched.Client.CacheHits != hits {
		t.Errorf("cache stats %+v, want 1 miss and %d hits", batched.Client, hits)
	}
	if plain.Client.OpsCoalesced != 0 || plain.Client.CacheHits != 0 {
		t.Errorf("unbatched session touched batching machinery: %+v", plain.Client)
	}
}

// TestInferenceScheduleMatchesWire pins perfmodel's analytic schedule to
// the functional wire, message count and byte totals both, in both modes.
// Any drift between the modeled and the real traffic fails here.
func TestInferenceScheduleMatchesWire(t *testing.T) {
	for _, batched := range []bool{false, true} {
		rep := runInference(t, netsim.GigaE(), batched)
		msgs, send, recv := perfmodel.InferenceTotals(rep.Spec)
		if rep.Messages != int64(msgs) {
			t.Errorf("batched=%v: wire carried %d messages, schedule says %d", batched, rep.Messages, msgs)
		}
		if rep.BytesSent != send || rep.BytesRecv != recv {
			t.Errorf("batched=%v: wire moved %d/%d bytes, schedule says %d/%d",
				batched, rep.BytesSent, rep.BytesRecv, send, recv)
		}
	}
}

// TestInferenceModelCrossValidation validates the batched-path latency
// model against the simulator the way Table IV validates the memcpy model
// against the testbed: build from a measured run on one network, predict
// the other, compare against its measured run — in both directions and both
// modes.
func TestInferenceModelCrossValidation(t *testing.T) {
	gige, ib := netsim.GigaE(), netsim.IB40G()
	for _, batched := range []bool{false, true} {
		onGigE := runInference(t, gige, batched)
		onIB := runInference(t, ib, batched)
		if onGigE.Digest != onIB.Digest {
			t.Fatalf("batched=%v: results depend on the interconnect", batched)
		}
		cross := []struct {
			source, target         *netsim.Link
			measuredSrc, measuredT InferenceReport
		}{
			{gige, ib, onGigE, onIB},
			{ib, gige, onIB, onGigE},
		}
		for _, c := range cross {
			m, err := perfmodel.BuildInference(c.measuredSrc.Spec, c.source, c.measuredSrc.Elapsed)
			if err != nil {
				t.Fatalf("batched=%v build on %s: %v", batched, c.source.Name(), err)
			}
			// The loop's device work hides behind wire time, so the
			// extracted fixed time must be a sliver of the session.
			if fixed := m.Fixed(); fixed < 0 || fixed > c.measuredSrc.Elapsed/50 {
				t.Errorf("batched=%v: fixed time %v out of [0, 2%%] of %v",
					batched, fixed, c.measuredSrc.Elapsed)
			}
			est := m.Estimate(c.target)
			relErr := math.Abs(float64(est-c.measuredT.Elapsed)) / float64(c.measuredT.Elapsed)
			t.Logf("batched=%v %s->%s: estimated %v, measured %v, error %.3f%%",
				batched, c.source.Name(), c.target.Name(), est, c.measuredT.Elapsed, relErr*100)
			if relErr > 0.01 {
				t.Errorf("batched=%v %s->%s: estimate %v vs measured %v, error %.2f%% > 1%%",
					batched, c.source.Name(), c.target.Name(), est, c.measuredT.Elapsed, relErr*100)
			}
		}
	}
}

// TestInferencePollsAfterSyncAreLocal pins which event polls the batching
// client answers itself: a poll of the event it has just synchronized, and
// no other. Completion status is never cached — a poll with no
// synchronization before it, or after the event is recorded again, still
// costs its exchange.
func TestInferencePollsAfterSyncAreLocal(t *testing.T) {
	link := netsim.GigaE()
	base, err := RunInference(InferenceOptions{Link: link, Batched: true, Polls: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	more, err := RunInference(InferenceOptions{Link: link, Batched: true, Polls: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if extra := more.Messages - base.Messages; extra != 0 {
		t.Fatalf("2 extra polls per request after the synchronization added %d messages, want 0", extra)
	}
	if base.Digest != more.Digest {
		t.Fatal("poll count changed the computation")
	}

	// One call at a time, with a frame budget of one sub-op so that a
	// record reaches the server before the poll after it.
	clk := vclock.NewSim()
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}))
	cliEnd, srvEnd := transport.Pipe(link, clk, nil)
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(srvEnd) }()
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	client, err := rcuda.Open(cliEnd, img, rcuda.WithBatching(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	event, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	sent := func(what string, want int64, call func() error) {
		t.Helper()
		before := cliEnd.Stats().MessagesSent
		if err := call(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := cliEnd.Stats().MessagesSent - before; got != want {
			t.Fatalf("%s sent %d messages, want %d", what, got, want)
		}
	}
	poll := func() error { return client.EventQuery(event) }
	sent("poll with no synchronization before it", 1, poll)
	sent("synchronization", 1, func() error { return client.EventSynchronize(event) })
	for i := 0; i < 3; i++ {
		sent("poll after the synchronization", 0, poll)
	}
	sent("record", 1, func() error { return client.EventRecord(event, 0) })
	sent("poll after the event is recorded again", 1, poll)
	sent("second poll after the record", 1, poll)
	if cs := client.Stats(); cs.CacheHits != 3 {
		t.Fatalf("client stats %+v, want the 3 local answers counted as cache hits", cs)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
