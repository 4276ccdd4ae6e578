package contention

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cluster"
	"rcuda/internal/des"
	"rcuda/internal/netsim"
	"rcuda/internal/workload"
)

func TestValidation(t *testing.T) {
	link := netsim.IB40G()
	if _, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 0, Link: link}); err == nil {
		t.Fatal("zero clients must fail")
	}
	if _, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 1}); err == nil {
		t.Fatal("nil link must fail")
	}
	if _, err := Run(Params{CS: calib.MM, Size: 0, Clients: 1, Link: link}); err == nil {
		t.Fatal("zero size must fail")
	}
	if _, err := Sweep(Params{CS: calib.MM, Size: 4096, Link: link}, 0); err == nil {
		t.Fatal("zero sweep must fail")
	}
}

// The event-level model with one client must reproduce the synchronous
// analytic execution exactly: same components, same serialization.
func TestSingleClientMatchesWorkloadModel(t *testing.T) {
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		for _, netName := range []string{"GigaE", "40GI"} {
			link, err := netsim.ByName(netName)
			if err != nil {
				t.Fatal(err)
			}
			size := calib.Sizes(cs)[0]
			res, err := Run(Params{CS: cs, Size: size, Clients: 1, Link: link})
			if err != nil {
				t.Fatal(err)
			}
			want, err := workload.Run(cs, size, workload.Remote, workload.Options{Link: link})
			if err != nil {
				t.Fatal(err)
			}
			if res.PerClient[0] != want.Total {
				t.Fatalf("%v over %s: DES %v, analytic %v", cs, netName, res.PerClient[0], want.Total)
			}
		}
	}
}

func TestContentionSlowsClientsDown(t *testing.T) {
	link := netsim.IB40G()
	single, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 1, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 4, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	if len(four.PerClient) != 4 {
		t.Fatalf("per-client results: %d", len(four.PerClient))
	}
	// Every contended client is at least as slow as the lone one; the
	// worst is strictly slower.
	var worst time.Duration
	for _, d := range four.PerClient {
		if d < single.PerClient[0] {
			t.Fatalf("contended client (%v) beat the lone client (%v)", d, single.PerClient[0])
		}
		if d > worst {
			worst = d
		}
	}
	if worst <= single.PerClient[0] {
		t.Fatal("contention must slow someone down")
	}
	// But sharing still beats running the four serially: the prep phases
	// overlap.
	if four.Makespan >= 4*single.PerClient[0] {
		t.Fatalf("makespan %v not better than serial %v", four.Makespan, 4*single.PerClient[0])
	}
}

func TestGPUBoundSharingScalesByDeviceTime(t *testing.T) {
	// For MM over a fast link the GPU is the bottleneck: K clients'
	// makespan approaches K × (device time per job), not K × (full job).
	link := netsim.IB40G()
	const k = 4
	res, err := Run(Params{CS: calib.MM, Size: 8192, Clients: k, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	device := 3*calib.PCIeTime(calib.MM, 8192) + calib.KernelTime(calib.MM, 8192)
	lower := time.Duration(k) * device
	if res.Makespan < lower {
		t.Fatalf("makespan %v below the GPU-serialization bound %v", res.Makespan, lower)
	}
	if res.Makespan > lower+lower/2 {
		t.Fatalf("makespan %v far above the GPU bound %v — device should dominate on 40GI", res.Makespan, lower)
	}
	if res.GPUUtilization < 0.6 {
		t.Fatalf("GPU utilization %.2f too low for a GPU-bound mix", res.GPUUtilization)
	}
}

func TestNetworkBoundSharingLoadsTheLink(t *testing.T) {
	// Over GigaE the wire dominates the FFT (two ~300 ms transfers versus
	// ~150 ms of device work per client): with several clients the link
	// is the busier resource by a wide margin.
	res, err := Run(Params{CS: calib.FFT, Size: 8192, Clients: 4, Link: netsim.GigaE()})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkUtilization <= 2*res.GPUUtilization {
		t.Fatalf("on GigaE the wire must dominate: link %.2f vs GPU %.2f",
			res.LinkUtilization, res.GPUUtilization)
	}
	if res.LinkUtilization < 0.5 {
		t.Fatalf("link utilization %.2f too low for four wire-bound clients", res.LinkUtilization)
	}
	// The mirror image on 40GI with MM: the GPU is the busier resource.
	res, err = Run(Params{CS: calib.MM, Size: 8192, Clients: 4, Link: netsim.IB40G()})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUtilization <= res.LinkUtilization {
		t.Fatalf("on 40GI the GPU must dominate: GPU %.2f vs link %.2f",
			res.GPUUtilization, res.LinkUtilization)
	}
}

func TestStaggerReducesQueueing(t *testing.T) {
	link := netsim.IB40G()
	burst, err := Run(Params{CS: calib.FFT, Size: 4096, Clients: 6, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals spread over ~6 job-lengths should reduce the worst
	// client's turnaround.
	spread, err := Run(Params{CS: calib.FFT, Size: 4096, Clients: 6, Link: link, Stagger: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if P95Turnaround(spread) >= P95Turnaround(burst) {
		t.Fatalf("staggered p95 %v should beat burst p95 %v", P95Turnaround(spread), P95Turnaround(burst))
	}
}

func TestSweepAndSlowdownShape(t *testing.T) {
	link := netsim.IB40G()
	results, err := Sweep(Params{CS: calib.MM, Size: 4096, Link: link}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	slow := Slowdown(results)
	if math.Abs(slow[0]-1) > 1e-9 {
		t.Fatalf("single-client slowdown %v, want 1", slow[0])
	}
	for i := 1; i < len(slow); i++ {
		if slow[i] < slow[i-1]-1e-9 {
			t.Fatalf("slowdown must not improve with more clients: %v", slow)
		}
	}
	if slow[5] <= 1.5 {
		t.Fatalf("six clients on one GPU should slow each other markedly, got %.2fx", slow[5])
	}
}

func TestDeterminism(t *testing.T) {
	p := Params{CS: calib.FFT, Size: 2048, Clients: 5, Link: netsim.GigaE(), Stagger: time.Millisecond}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("runs diverged: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.PerClient {
		if a.PerClient[i] != b.PerClient[i] {
			t.Fatal("per-client times diverged")
		}
	}
}

func TestP95Degenerate(t *testing.T) {
	if P95Turnaround(Result{}) != 0 {
		t.Fatal("empty result p95")
	}
	one := Result{PerClient: []time.Duration{time.Second}}
	if P95Turnaround(one) != time.Second {
		t.Fatal("single-client p95")
	}
}

// TestRunMatchesParent pins Run to the exact nanoseconds and utilization
// bits that the goroutine-per-client engine produced before contention
// moved onto des.EventLoop, across both case studies, both testbed links,
// one to eight clients and burst or staggered arrivals. Figure 9 and
// EXPERIMENTS.md print from these runs; a waiter served out of FIFO order
// moves the per-client rows.
func TestRunMatchesParent(t *testing.T) {
	cells := []struct {
		cs        calib.CaseStudy
		net       string
		clients   int
		stagger   time.Duration
		perClient []time.Duration
		makespan  time.Duration
		linkBits  uint64
		gpuBits   uint64
	}{
		{calib.MM, "GigaE", 1, 0, []time.Duration{15622241232}, 15622241232, 0x3fdc07e07e2cd3b9, 0x3fdbeb4eb01c2e7c},
		{calib.MM, "GigaE", 1, time.Millisecond, []time.Duration{15622241232}, 15622241232, 0x3fdc07e07e2cd3b9, 0x3fdbeb4eb01c2e7c},
		{calib.MM, "GigaE", 3, 0, []time.Duration{42624398651, 42624420851, 42624443051}, 42624443051, 0x3fded211ee35fe90, 0x3fdeb2a8347451a9},
		{calib.MM, "GigaE", 3, time.Millisecond, []time.Duration{42624398651, 42623420851, 42622443051}, 42624443051, 0x3fded211ee35fe90, 0x3fdeb2a8347451a9},
		{calib.MM, "GigaE", 8, 0, []time.Duration{110241513386, 110241535586, 110241557786, 110241579986, 110241602186, 110241624386, 110241646586, 110241668786}, 110241668786, 0x3fdfc717d7bfd925, 0x3fdfa6b4626bedc2},
		{calib.MM, "GigaE", 8, time.Millisecond, []time.Duration{110241513386, 110240535586, 110239557786, 110238579986, 110237602186, 110236624386, 110235646586, 110234668786}, 110241668786, 0x3fdfc717d7bfd925, 0x3fdfa6b4626bedc2},
		{calib.MM, "40GI", 1, 0, []time.Duration{9342376137}, 9342376137, 0x3faed20b7138411c, 0x3fe757d5420db161},
		{calib.MM, "40GI", 1, time.Millisecond, []time.Duration{9342376137}, 9342376137, 0x3faed20b7138411c, 0x3fe757d5420db161},
		{calib.MM, "40GI", 3, 0, []time.Duration{23784733934, 23784761834, 23784789734}, 23784789734, 0x3fb228ab9f241e6e, 0x3feb81b420629d89},
		{calib.MM, "40GI", 3, time.Millisecond, []time.Duration{23784733934, 23783761834, 23782789734}, 23784789734, 0x3fb228ab9f241e6e, 0x3feb81b420629d89},
		{calib.MM, "40GI", 8, 0, []time.Duration{60002333274, 60002444874, 60002472774, 60002500674, 60002528574, 60002556474, 60002584374, 60002612274}, 60002612274, 0x3fb331e75bd55d66, 0x3fed1379276eece7},
		{calib.MM, "40GI", 8, time.Millisecond, []time.Duration{60002333274, 60001444874, 60000472774, 59999500674, 59998528574, 59997556474, 59996584374, 59995612274}, 60002612274, 0x3fb331e75bd55d66, 0x3fed1379276eece7},
		{calib.FFT, "GigaE", 1, 0, []time.Duration{964756876}, 964756876, 0x3fe4f5af44236736, 0x3fc5f27eef5f9786},
		{calib.FFT, "GigaE", 1, time.Millisecond, []time.Duration{964756876}, 964756876, 0x3fe4f5af44236736, 0x3fc5f27eef5f9786},
		{calib.FFT, "GigaE", 3, 0, []time.Duration{2536807823, 2536830023, 2536852223}, 2536852223, 0x3fe7e9a89f53f6d7, 0x3fc90a16adaf5d13},
		{calib.FFT, "GigaE", 3, time.Millisecond, []time.Duration{2536807823, 2535830023, 2534852223}, 2536852223, 0x3fe7e9a89f53f6d7, 0x3fc90a16adaf5d13},
		{calib.FFT, "GigaE", 8, 0, []time.Duration{6467160528, 6467182728, 6467204928, 6467227128, 6467249328, 6467271528, 6467293728, 6467315928}, 6467315928, 0x3fe903600043d6f9, 0x3fca31140e2e4c84},
		{calib.FFT, "GigaE", 8, time.Millisecond, []time.Duration{6467160528, 6466182728, 6465204928, 6464227128, 6463249328, 6462271528, 6461293728, 6460315928}, 6467315928, 0x3fe903600043d6f9, 0x3fca31140e2e4c84},
		{calib.FFT, "40GI", 1, 0, []time.Duration{379974946}, 379974946, 0x3fbfbfda6d465dc2, 0x3fdbdcaf1fb622e8},
		{calib.FFT, "40GI", 1, time.Millisecond, []time.Duration{379974946}, 379974946, 0x3fbfbfda6d465dc2, 0x3fdbdcaf1fb622e8},
		{calib.FFT, "40GI", 3, 0, []time.Duration{782386517, 782414417, 782442317}, 782442317, 0x3fc720a7a358568c, 0x3fe44bbbd0162d95},
		{calib.FFT, "40GI", 3, time.Millisecond, []time.Duration{782386517, 781414417, 780442317}, 782442317, 0x3fc720a7a358568c, 0x3fe44bbbd0162d95},
		{calib.FFT, "40GI", 8, 0, []time.Duration{1788610512, 1788722112, 1788750012, 1788777912, 1788805812, 1788833712, 1788861612, 1788889512}, 1788889512, 0x3fcaf9b17dfaa8e6, 0x3fe7ac2a26b4a9fd},
		{calib.FFT, "40GI", 8, time.Millisecond, []time.Duration{1788610512, 1787722112, 1786750012, 1785777912, 1784805812, 1783833712, 1782861612, 1781889512}, 1788889512, 0x3fcaf9b17dfaa8e6, 0x3fe7ac2a26b4a9fd},
	}
	for _, c := range cells {
		link, err := netsim.ByName(c.net)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Params{CS: c.cs, Size: 8192, Clients: c.clients, Link: link, Stagger: c.stagger})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v/%s/%d clients/stagger %v", c.cs, c.net, c.clients, c.stagger)
		if !reflect.DeepEqual(r.PerClient, c.perClient) || r.Makespan != c.makespan {
			t.Errorf("%s: per-client %v makespan %v, want %v makespan %v",
				name, r.PerClient, r.Makespan, c.perClient, c.makespan)
		}
		if lb, gb := math.Float64bits(r.LinkUtilization), math.Float64bits(r.GPUUtilization); lb != c.linkBits || gb != c.gpuBits {
			t.Errorf("%s: utilization bits link %#x gpu %#x, want %#x %#x", name, lb, gb, c.linkBits, c.gpuBits)
		}
	}
}

// Consistency with the cluster-level list-scheduling model: the coarse
// model holds the GPU for a job's entire network+device service, so its
// makespan upper-bounds the event-level simulation, which overlaps one
// client's wire time with another's device time.
func TestDESConsistentWithClusterModel(t *testing.T) {
	link := netsim.IB40G()
	const k = 4
	fine, err := Run(Params{CS: calib.MM, Size: 8192, Clients: k, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]cluster.Job, k)
	for i := range jobs {
		jobs[i] = cluster.Job{ID: i, CS: calib.MM, Size: 8192}
	}
	coarse, err := cluster.Simulate(cluster.Config{Nodes: k, GPUs: 1, Network: link}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Makespan > coarse.Makespan {
		t.Fatalf("event-level makespan %v exceeds the coarse upper bound %v",
			fine.Makespan, coarse.Makespan)
	}
	// And both sit above the trivial lower bound: the serialized device
	// work.
	device := time.Duration(k) * (3*calib.PCIeTime(calib.MM, 8192) + calib.KernelTime(calib.MM, 8192))
	if fine.Makespan < device {
		t.Fatalf("event-level makespan %v below the device bound %v", fine.Makespan, device)
	}
}

// Three uses requested at the same instant run back to back in the order
// they were asked for, and keep the resource busy the whole span.
func TestResourceSerializes(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		r.use(10*time.Millisecond, func() { ends = append(ends, loop.Now()) })
	}
	end := loop.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if !reflect.DeepEqual(ends, want) || end != 30*time.Millisecond {
		t.Fatalf("uses ended at %v (run end %v), want %v", ends, end, want)
	}
	if u := r.utilization(end); u != 1 {
		t.Fatalf("utilization %v, want 1", u)
	}
}

// Waiters are handed the unit in arrival order, each at the instant the
// previous holder lets go.
func TestResourceFIFOUnderContention(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	var order []string
	var starts []time.Duration
	r.use(10*time.Millisecond, func() {})
	for i, name := range []string{"first", "second"} {
		name := name
		loop.At(time.Duration(i+1)*time.Millisecond, func() {
			r.use(time.Millisecond, func() {
				order = append(order, name)
				starts = append(starts, loop.Now()-time.Millisecond)
			})
		})
	}
	loop.Run()
	if !reflect.DeepEqual(order, []string{"first", "second"}) ||
		!reflect.DeepEqual(starts, []time.Duration{10 * time.Millisecond, 11 * time.Millisecond}) {
		t.Fatalf("waiters ran %v starting at %v, want [first second] at [10ms 11ms]", order, starts)
	}
}

// Utilization counts held time only: an idle gap after the last use halves
// it.
func TestUtilizationPartial(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	r.use(10*time.Millisecond, func() { loop.At(10*time.Millisecond, func() {}) })
	if u := r.utilization(loop.Run()); u != 0.5 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
	if u := (&resource{}).utilization(0); u != 0 {
		t.Fatalf("utilization of an empty run %v, want 0", u)
	}
}

// A client chain that stops before its end is an error, not a result.
func TestUnfinishedClientIsAnError(t *testing.T) {
	loop := des.NewEventLoop()
	finished := 0
	loop.At(time.Millisecond, func() { finished++ })
	if _, err := runClients(loop, &finished, 2); err == nil {
		t.Fatal("one of two clients finished, want an error")
	}
	loop.At(time.Millisecond, func() { finished++ })
	if end, err := runClients(loop, &finished, 2); err != nil || end != 2*time.Millisecond {
		t.Fatalf("both clients finished: end %v, err %v", end, err)
	}
}
