package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

func TestSpanConnForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	a, b := transport.Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	if got := wrapConn(a, nil, clientSide); got != transport.Conn(a) {
		t.Fatalf("untraced wrapConn must return the connection itself")
	}
	cli, srv := wrapConn(a, tr, clientSide), wrapConn(b, tr, serverSide)
	for _, c := range []transport.Conn{cli, srv} {
		if _, ok := c.(transport.TimedReceiver); !ok {
			t.Errorf("wrapped pipe end lost TimedReceiver")
		}
		if _, ok := c.(transport.ScheduledSender); !ok {
			t.Errorf("wrapped pipe end lost ScheduledSender")
		}
		if _, ok := c.(transport.DeadlineCapable); !ok {
			t.Errorf("wrapped pipe end lost DeadlineCapable")
		}
	}

	// One exchange through every wrapped method; Stats must be the inner
	// connection's, and the spans must be there.
	req := &protocol.MallocRequest{Size: 64}
	if err := cli.Send(req); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.(transport.TimedReceiver).RecvTimed(); err != nil {
		t.Fatal(err)
	}
	if err := srv.(transport.ScheduledSender).SendAt(&protocol.MallocResponse{DevPtr: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Recv(); err != nil {
		t.Fatal(err)
	}
	if got, want := cli.Stats(), a.Stats(); got != want || got.MessagesSent != 1 || got.MessagesRecv != 1 {
		t.Errorf("client Stats() = %+v, inner %+v", got, want)
	}
	if got, want := srv.Stats(), b.Stats(); got != want || got.BytesRecv != int64(req.WireSize()) {
		t.Errorf("server Stats() = %+v, inner %+v", got, want)
	}
	tot := totalsByName(tr.recorded())
	for _, name := range []string{spanCliSend, spanCliRecv, spanSrvRecv, spanSrvSend, spanHandle} {
		if tot[name].count != 1 {
			t.Errorf("%d %s spans, want 1", tot[name].count, name)
		}
	}
	_ = cli.Close()

	// A real socket has no arrival stamps; the wrapper must not invent them.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tc, err := transport.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	w := wrapConn(tc, tr, clientSide)
	if _, ok := w.(transport.TimedReceiver); ok {
		t.Errorf("wrapped TCP connection claims TimedReceiver")
	}
	if _, ok := w.(transport.ScheduledSender); ok {
		t.Errorf("wrapped TCP connection claims ScheduledSender")
	}
	dc, ok := w.(transport.DeadlineCapable)
	if !ok {
		t.Fatalf("wrapped TCP connection lost DeadlineCapable")
	}
	dc.SetOpTimeout(10 * time.Millisecond) // nobody accepts or answers: Recv must time out
	if _, err := w.Recv(); err == nil {
		t.Errorf("SetOpTimeout was not forwarded: Recv returned without a deadline error")
	}
}

func TestStatistics(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([10, 14], n=4) == [9.0, 12.0, 15.0]
	if q1, q3 = quartiles([]float64{14, 10}); q1 != 9 || q3 != 15 {
		t.Errorf("two-point quartiles = %v, %v; want 9, 15", q1, q3)
	}
	if got := spread([]float64{10, 14}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spread = %v, want 0.5", got)
	}
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	if got := percentileSorted(s, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentileSorted(s, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	for n, want := range map[int]float64{5: 50, 100: 90, 1000: 99, 10_000: 99.9, 1_000_000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := medianU32([]uint32{9, 1, 5, 3}); got != 4 {
		t.Errorf("medianU32 = %v, want 4", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "kid", start: 10, end: 30, parent: 0},
		{name: "kid", start: 20, end: 50, parent: 0},  // overlaps the first: 10..50 is covered once
		{name: "kid", start: 90, end: 120, parent: 0}, // runs past the parent: clipped at 100
		{name: "grandkid", start: 12, end: 18, parent: 1},
		{name: "open", start: 5, parent: 0}, // never ended: ignored by the totals
	}
	self := selfTimes(spans)
	if want := []int64{50, 14, 30, 30, 6}; !reflect.DeepEqual(self[:5], want) {
		t.Errorf("selfTimes = %v, want %v", self[:5], want)
	}
	tot := totalsByName(spans)
	if got := tot["kid"]; got.count != 3 || got.dur != 80 || got.selfT != 74 {
		t.Errorf("kid totals = %+v", got)
	}
	if _, ok := tot["open"]; ok {
		t.Errorf("unfinished span counted")
	}
}

func TestInputsDeriveFromSeed(t *testing.T) {
	a, b, c := make([]byte, 4099), make([]byte, 4099), make([]byte, 4099)
	fillPattern(a, 7, 1)
	fillPattern(b, 7, 1)
	fillPattern(c, 8, 1)
	if !bytes.Equal(a, b) {
		t.Errorf("equal seeds gave different patterns")
	}
	if bytes.Equal(a, c) {
		t.Errorf("different seeds gave the same pattern")
	}
	if deriveSeed(7, 1) != deriveSeed(7, 1) || deriveSeed(7, 1) == deriveSeed(7, 2) || deriveSeed(7, 1) == deriveSeed(8, 1) {
		t.Errorf("deriveSeed does not separate seeds and streams")
	}
	if deriveSeed(-3, 1) < 0 {
		t.Errorf("deriveSeed returned a negative seed")
	}

	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := newInferData(7, mod)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := newInferData(7, mod)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := newInferData(8, mod)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("equal seeds gave different inference inputs or oracle outputs")
	}
	if reflect.DeepEqual(d1.inputs, d3.inputs) || reflect.DeepEqual(d1.want, d3.want) {
		t.Errorf("different seeds gave the same inference data")
	}
	if len(d1.want) != inferInputs || len(d1.want[0]) != inferBytes || bytes.Equal(d1.want[0], d1.want[1]) {
		t.Errorf("oracle outputs malformed")
	}

	if fleetScaleDown(3).Seed != 3 || fleetClasses(4, 100).Seed != 4 || fleetClasses(4, 100).Sessions != 100 {
		t.Errorf("fleet configs ignore their seed or size")
	}
}

// benchmarkJSON mirrors every key of BENCHMARK.json; unknown keys fail the
// decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName("workload", w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}

	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		checkName("metric", d.name)
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s is malformed", d.unit, d.name)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, got.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		checkName("metric", d.name)
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the harness has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s is malformed", d.unit, d.name)
		}
	}

	// The emitted result carries exactly the listed names, whatever values
	// were computed, and NaN never reaches the JSON encoder.
	r := newResult(endToEndDefs, map[string]float64{"op_over_ref": math.NaN(), "stray": 1}, 10, 0, nil)
	if len(r.Metrics) != len(endToEndDefs) || !r.Correct {
		t.Errorf("result = %+v", r)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Errorf("result does not marshal: %v", err)
	}
	if r := newResult(endToEndDefs, nil, 10, 1, nil); r.Correct {
		t.Errorf("a failed op left the result correct")
	}
	if r := newResult(endToEndDefs, nil, 10, 0, []string{"leak"}); r.Correct {
		t.Errorf("a violated invariant left the result correct")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "rtt_small", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "rtt_small", "--seed", "3", "--seconds", "10", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-aa", "2"}); !reflect.DeepEqual(got, []string{"-trace", "-aa", "2"}) {
		t.Errorf("bare -trace was rewritten: %q", got)
	}
}
