package workload

import (
	"fmt"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/trace"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// copyFixed is each copy op's fixed request and reply length (Table I's
// fields): whatever a recorded copy carries beyond them is its payload.
var copyFixed = map[protocol.Op]int{
	protocol.OpMemcpyToDevice:      20 + 4,
	protocol.OpMemcpyToHost:        20 + 4,
	protocol.OpMemcpyToDeviceAsync: 24 + 4,
	protocol.OpMemcpyToHostAsync:   24 + 4,
}

// TestSchedulesMatchTheWire is the oracle of every perfmodel schedule
// builder: a functional run of the same session, recorded through
// rcuda.Observer, must carry the builder's messages one for one — same op,
// same request bytes, same reply bytes, same bulk payload, in the same
// order. The inference sessions' recordings are also held to their
// connection's own counters, so the schedules match what the wire moved,
// not only what the client reports.
func TestSchedulesMatchTheWire(t *testing.T) {
	type shape struct {
		name string
		got  []trace.Event
		want []perfmodel.Msg
	}
	record := func(name string, want []perfmodel.Msg, run func(Options) (Report, error)) shape {
		rec := trace.NewRecorder(vclock.NewSim())
		r, err := run(Options{Link: netsim.GigaE(), Functional: true, Observer: rec})
		if err != nil || !r.Verified {
			t.Fatalf("%s: functional run failed (verified=%v): %v", name, r.Verified, err)
		}
		return shape{name, rec.Events(), want}
	}
	shapes := []shape{
		record("MM 64", perfmodel.Schedule(calib.MM, 64),
			func(o Options) (Report, error) { return Run(calib.MM, 64, Remote, o) }),
		record("FFT 64", perfmodel.Schedule(calib.FFT, 64),
			func(o Options) (Report, error) { return Run(calib.FFT, 64, Remote, o) }),
		record("pipelined FFT 512/4", perfmodel.PipelinedSchedule(512, 4),
			func(o Options) (Report, error) { return RunPipelined(512, 4, o) }),
	}
	for _, batched := range []bool{false, true} {
		rec := trace.NewRecorder(vclock.NewSim())
		spec, wire := recordInference(t, batched, rec)
		name := fmt.Sprintf("inference batched=%v", batched)
		checkAgainstWire(t, name, rec.Events(), wire)
		shapes = append(shapes, shape{name, rec.Events(), perfmodel.InferenceSchedule(spec)})
	}
	for _, s := range shapes {
		for i := range max(len(s.got), len(s.want)) {
			g, w := "nothing", "nothing"
			if i < len(s.got) {
				e := s.got[i]
				var bulk int
				if fixed, ok := copyFixed[e.Op]; ok {
					bulk = e.SendBytes + e.RecvBytes - fixed
				}
				g = fmt.Sprintf("%v %d/%d B, bulk %d B", e.Op, e.SendBytes, e.RecvBytes, bulk)
			}
			if i < len(s.want) {
				m := s.want[i]
				w = fmt.Sprintf("%v %d/%d B, bulk %d B", m.Op, m.Send, m.Recv, m.Bulk)
			}
			if g != w {
				t.Errorf("%s: message %d is %s on the wire (%d messages), %s in the schedule (%d)",
					s.name, i, g, len(s.got), w, len(s.want))
				break
			}
		}
	}
}

// TestObserverReportsEveryExchange holds the observer to the wire: in an
// inference session, batched or not, it reports one event per message the
// connection carried, and its byte sums are the connection's.
func TestObserverReportsEveryExchange(t *testing.T) {
	for _, batched := range []bool{false, true} {
		rec := trace.NewRecorder(vclock.NewSim())
		_, wire := recordInference(t, batched, rec)
		checkAgainstWire(t, fmt.Sprintf("batched=%v", batched), rec.Events(), wire)
	}
}

// checkAgainstWire compares a recording's message count and byte sums with
// the counters of the connection it was recorded on.
func checkAgainstWire(t *testing.T, name string, events []trace.Event, wire transport.Stats) {
	t.Helper()
	var sent, recv int64
	for _, e := range events {
		sent += int64(e.SendBytes)
		recv += int64(e.RecvBytes)
	}
	if int64(len(events)) != wire.MessagesSent || sent != wire.BytesSent || recv != wire.BytesRecv {
		t.Errorf("%s: observer reported %d messages, %d/%d bytes; the wire carried %d, %d/%d",
			name, len(events), sent, recv, wire.MessagesSent, wire.BytesSent, wire.BytesRecv)
	}
}

// recordInference runs the default inference loop on a simulated daemon of
// its own with rec attached to the client, and returns the spec that shapes
// the session's schedule and the client connection's counters.
func recordInference(t *testing.T, batched bool, rec rcuda.Observer) (perfmodel.InferenceSpec, transport.Stats) {
	t.Helper()
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	opts := []rcuda.ClientOption{rcuda.WithObserver(rec)}
	if batched {
		opts = append(opts, rcuda.WithBatching(0, 0))
	}
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	daemon := rcuda.NewSimDaemon(rcuda.NewServer(dev), netsim.GigaE(), clk, nil)
	conn, _ := daemon.Dial()
	client, err := rcuda.Open(conn, img, opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := ExecuteInference(client, DefaultInferenceLayers, DefaultInferenceRequests, DefaultInferencePolls, 7)
	if err != nil || !ok {
		t.Fatalf("batched=%v: inference failed (verified=%v): %v", batched, ok, err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatal(err)
	}
	spec := perfmodel.InferenceSpec{
		ModuleBytes: len(img),
		Layers:      DefaultInferenceLayers,
		Requests:    DefaultInferenceRequests,
		Polls:       DefaultInferencePolls,
		Batched:     batched,
		DeviceName:  dev.Name(),
	}
	return spec, conn.Stats()
}
