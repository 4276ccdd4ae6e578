package rcuda

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/protocol"
)

// The event-completion differential test: seeded random programs over two
// devices that create, record, synchronize, query and destroy events (a
// destroyed handle stays in use, and both devices hand out the same ids),
// launch kernels and switch devices. Each runs on the local runtime, on an
// unbatched client and on a batching client, which answers a query of the
// event it has just synchronized without asking the server. Every call must
// answer the same cudaError_t — up to CUDA's asynchronous error model on the
// batching client — device memory must end the same, and the batching client
// must answer locally exactly the queries its rule covers.

// eventRuntime is what an event program calls.
type eventRuntime interface {
	cudart.AsyncRuntime
	SetDevice(device int) error
}

const (
	eventSlots   = 3 // slots 0 and 1 hold created handles, 2 one never created
	eventDevices = 2
)

// eventCall is one call of an event program. slot indexes the program's
// event handles, stream {default, created}.
type eventCall struct {
	op           protocol.Op
	slot, stream int
	buf, a, b    int
	kernel       string
	device       int
}

// eventProgram sets up the same buffers, stream and two events on both
// devices of any runtime, makes its calls, and reads every buffer back on
// both devices.
type eventProgram struct {
	init   [foldLive][]byte
	calls  []eventCall
	maxOps int // the batching client's frame budget
}

func genEventProgram(seed int64) eventProgram {
	rng := rand.New(rand.NewSource(seed))
	var p eventProgram
	for i := range p.init {
		p.init[i] = floatBytes(rng, foldBufBytes)
	}
	p.maxOps = []int{0, 1, 2, 3}[rng.Intn(4)]
	// Half the programs launch a kernel that fails for one in six launches
	// and select a device that does not exist for one in six selections.
	dirty := rng.Intn(2) == 0
	slot := func() int {
		if rng.Intn(10) == 0 {
			return eventSlots - 1
		}
		return rng.Intn(eventSlots - 1)
	}
	for n := 8 + rng.Intn(24); n > 0; n-- {
		c := eventCall{slot: slot(), stream: rng.Intn(2), buf: rng.Intn(foldLive)}
		switch r := rng.Intn(40); {
		case r < 8:
			c.op, c.kernel, c.a, c.b = protocol.OpLaunch, kernels.SgemmKernel, rng.Intn(foldLive), rng.Intn(foldLive)
			if dirty && rng.Intn(6) == 0 {
				c.kernel = "no-such-kernel"
			}
		case r < 16:
			c.op = protocol.OpEventRecord
		case r < 22:
			c.op = protocol.OpEventSynchronize
		case r < 30:
			c.op = protocol.OpEventQuery
		case r < 32:
			c.op = protocol.OpEventDestroy
		case r < 34:
			c.op, c.slot = protocol.OpEventCreate, rng.Intn(eventSlots-1)
		case r < 38:
			c.op, c.device = protocol.OpSetDevice, rng.Intn(eventDevices)
			if dirty && rng.Intn(6) == 0 {
				c.device = eventDevices
			}
		case r < 39:
			c.op = protocol.OpMemcpyToHost
		default:
			c.op = protocol.OpDeviceSynchronize
		}
		p.calls = append(p.calls, c)
	}
	for d := 0; d < eventDevices; d++ {
		p.calls = append(p.calls, eventCall{op: protocol.OpSetDevice, device: d})
		for i := 0; i < foldLive; i++ {
			p.calls = append(p.calls, eventCall{op: protocol.OpMemcpyToHost, buf: i})
		}
	}
	return p
}

// run sets the program's state up on rt, makes its calls and returns each
// call's code, with the bytes the read-backs returned.
func (p eventProgram) run(rt eventRuntime) (codes []cudart.Error, mem []byte, err error) {
	var ptrs [foldLive]cudart.DevicePtr
	streams := [2]cudart.Stream{}
	events := [eventSlots]cudart.Event{0, 0, 77}
	for d := eventDevices - 1; d >= 0; d-- {
		if err := rt.SetDevice(d); err != nil {
			return nil, nil, err
		}
		for i := range ptrs {
			if ptrs[i], err = rt.Malloc(foldBufBytes); err != nil {
				return nil, nil, err
			}
			if err := rt.MemcpyToDevice(ptrs[i], p.init[i]); err != nil {
				return nil, nil, err
			}
		}
		if streams[1], err = rt.StreamCreate(); err != nil {
			return nil, nil, err
		}
		for i := 0; i < eventSlots-1; i++ {
			if events[i], err = rt.EventCreate(); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, c := range p.calls {
		e, s := events[c.slot], streams[c.stream]
		var err error
		switch c.op {
		case protocol.OpLaunch:
			err = rt.LaunchAsync(c.kernel, cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: 8, Y: 8, Z: 1}, 0,
				gpu.PackParams(uint32(ptrs[c.a]), uint32(ptrs[c.b]), uint32(ptrs[c.buf]), 8), s)
		case protocol.OpEventRecord:
			err = rt.EventRecord(e, s)
		case protocol.OpEventSynchronize:
			err = rt.EventSynchronize(e)
		case protocol.OpEventQuery:
			err = rt.EventQuery(e)
		case protocol.OpEventDestroy:
			err = rt.EventDestroy(e)
		case protocol.OpEventCreate:
			events[c.slot], err = rt.EventCreate()
		case protocol.OpSetDevice:
			err = rt.SetDevice(c.device)
		case protocol.OpDeviceSynchronize:
			err = rt.DeviceSynchronize()
		case protocol.OpMemcpyToHost:
			dst := make([]byte, foldBufBytes)
			err = rt.MemcpyToHost(dst, ptrs[c.buf])
			mem = append(mem, dst...)
		}
		var ce cudart.Error
		if err != nil && !errors.As(err, &ce) {
			return nil, nil, fmt.Errorf("%v: %w", c.op, err)
		}
		codes = append(codes, ce)
	}
	return codes, mem, nil
}

// Variants of the local-answer rule: the rule itself, and the rule with one
// of its invalidations dropped — each a mutation the test must catch.
const (
	ruleExact = iota
	ruleKeepsRecord
	ruleKeepsDestroy
	ruleKeepsSetDevice
	ruleVariants
)

var ruleNames = [ruleVariants]string{"exact", "record", "destroy", "SetDevice"}

// eventFact is one rule variant's synchronized event.
type eventFact struct {
	e  cudart.Event
	ok bool
}

// modelQuery is the model's view of one EventQuery: which rule variants
// answer it locally, and the local runtime's answer.
type modelQuery struct {
	covers [ruleVariants]bool
	code   cudart.Error
}

// batchingModel runs a program on the local runtime as a batching client
// answers it. A batched call (launch, record) runs and answers success; the
// first failure since the last sync point is instead the answer of the next
// call that is not batched, which then does not run — the server skips a
// closing sub-op after a failure, and the client reports a parked one
// without sending the call. It also keeps the local-answer rule, once
// exactly and once per dropped invalidation.
type batchingModel struct {
	*cudart.Local
	maxOps  int
	pending int          // batched calls not yet flushed
	failure cudart.Error // first batched failure since the last sync point
	facts   [ruleVariants]eventFact
	queries []modelQuery
}

func (m *batchingModel) batched(err error) error {
	var ce cudart.Error
	errors.As(err, &ce)
	if m.failure == cudart.Success {
		m.failure = ce
	}
	if m.pending++; m.pending >= m.maxOps {
		m.pending = 0
	}
	return nil
}

func (m *batchingModel) syncPoint(call func() error) error {
	m.pending = 0
	if f := m.failure; f != cudart.Success {
		m.failure = cudart.Success
		return f
	}
	return call()
}

// forget clears the fact of every variant but keeper, for a call of e — or
// of any event, when all.
func (m *batchingModel) forget(keeper int, e cudart.Event, all bool) {
	for v := range m.facts {
		if v != keeper && (all || m.facts[v].e == e) {
			m.facts[v].ok = false
		}
	}
}

func (m *batchingModel) LaunchAsync(name string, grid, block cudart.Dim3, shared uint32, params []byte, s cudart.Stream) error {
	return m.batched(m.Local.LaunchAsync(name, grid, block, shared, params, s))
}

func (m *batchingModel) EventRecord(e cudart.Event, s cudart.Stream) error {
	m.forget(ruleKeepsRecord, e, false)
	return m.batched(m.Local.EventRecord(e, s))
}

func (m *batchingModel) EventSynchronize(e cudart.Event) error {
	err := m.syncPoint(func() error { return m.Local.EventSynchronize(e) })
	if err == nil {
		for v := range m.facts {
			m.facts[v] = eventFact{e, true}
		}
	}
	return err
}

func (m *batchingModel) EventQuery(e cudart.Event) error {
	var q modelQuery
	for v, f := range m.facts {
		q.covers[v] = f.ok && f.e == e && m.pending == 0 && m.failure == cudart.Success
	}
	err := m.syncPoint(func() error { return m.Local.EventQuery(e) })
	errors.As(err, &q.code)
	m.queries = append(m.queries, q)
	return err
}

func (m *batchingModel) EventDestroy(e cudart.Event) error {
	m.forget(ruleKeepsDestroy, e, false)
	return m.syncPoint(func() error { return m.Local.EventDestroy(e) })
}

func (m *batchingModel) SetDevice(device int) error {
	m.forget(ruleKeepsSetDevice, 0, true)
	return m.syncPoint(func() error { return m.Local.SetDevice(device) })
}

func (m *batchingModel) EventCreate() (e cudart.Event, err error) {
	err = m.syncPoint(func() error {
		e, err = m.Local.EventCreate()
		return err
	})
	return e, err
}

func (m *batchingModel) DeviceSynchronize() error {
	return m.syncPoint(m.Local.DeviceSynchronize)
}

func (m *batchingModel) MemcpyToHost(dst []byte, src cudart.DevicePtr) error {
	return m.syncPoint(func() error { return m.Local.MemcpyToHost(dst, src) })
}

// probedClient records, for each EventQuery of a client, whether it was
// answered locally and how many messages it sent.
type probedClient struct {
	*Client
	local []bool
	sent  []int64
}

func (p *probedClient) EventQuery(e cudart.Event) error {
	hits, sent := p.Stats().CacheHits, p.conn.Stats().MessagesSent
	err := p.Client.EventQuery(e)
	p.local = append(p.local, p.Stats().CacheHits > hits)
	p.sent = append(p.sent, p.conn.Stats().MessagesSent-sent)
	return err
}

func TestEventCompletionMatchesLocal(t *testing.T) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	openLocal := func() *cudart.Local {
		devs := simDevices(eventDevices)
		l, err := cudart.OpenLocal(devs[0], mod, cudart.Preinitialized(), cudart.ExtraDevices(devs[1:]...))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	remote := func(opts ...ClientOption) (*Client, func()) {
		devs := simDevices(eventDevices)
		return remoteOn(t, NewServer(devs[0], WithDevices(devs[1:]...)), img, opts...)
	}
	// How many queries the rule answers, and for each dropped invalidation
	// how many queries that variant would answer success where the local
	// runtime does not — the programs that catch the mutation.
	var answered int
	var decisive [ruleVariants]int
	for seed := int64(1); seed <= 1000; seed++ {
		p := genEventProgram(seed)
		local := openLocal()
		want, wantMem, err := p.run(local)
		_ = local.Close()
		if err != nil {
			t.Fatalf("seed %d local: %v", seed, err)
		}
		plain, closePlain := remote()
		got, mem, err := p.run(plain)
		hits := plain.Stats().CacheHits
		closePlain()
		if err != nil {
			t.Fatalf("seed %d unbatched: %v", seed, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || !bytes.Equal(mem, wantMem) {
			t.Fatalf("seed %d: unbatched client answered %v, local %v (memory equal: %v)", seed, got, want, bytes.Equal(mem, wantMem))
		}
		if hits != 0 {
			t.Fatalf("seed %d: the unbatched client answered %d calls locally", seed, hits)
		}

		maxOps := p.maxOps
		if maxOps == 0 {
			maxOps = DefaultBatchOps
		}
		model := &batchingModel{Local: openLocal(), maxOps: maxOps}
		exp, expMem, err := p.run(model)
		_ = model.Close()
		if err != nil {
			t.Fatalf("seed %d model: %v", seed, err)
		}
		client, closeBatched := remote(WithBatching(p.maxOps, 0))
		probed := &probedClient{Client: client}
		got, mem, err = p.run(probed)
		closeBatched()
		if err != nil {
			t.Fatalf("seed %d batched: %v", seed, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(exp) || !bytes.Equal(mem, expMem) {
			t.Fatalf("seed %d (frame budget %d): batching client answered %v, want %v (memory equal: %v)",
				seed, p.maxOps, got, exp, bytes.Equal(mem, expMem))
		}
		for i, q := range model.queries {
			covered := q.covers[ruleExact]
			if probed.local[i] != covered {
				t.Fatalf("seed %d query %d: answered locally %v, the rule says %v", seed, i, probed.local[i], covered)
			}
			if covered && probed.sent[i] != 0 {
				t.Fatalf("seed %d query %d: a local answer sent %d messages", seed, i, probed.sent[i])
			}
			if covered {
				answered++
			}
			for v := ruleExact + 1; v < ruleVariants; v++ {
				if q.covers[v] && !covered && q.code != cudart.Success {
					decisive[v]++
				}
			}
		}
	}
	t.Logf("queries answered locally %d; a variant keeping the fact through a record / destroy / SetDevice would answer wrongly %d / %d / %d times",
		answered, decisive[ruleKeepsRecord], decisive[ruleKeepsDestroy], decisive[ruleKeepsSetDevice])
	if answered == 0 {
		t.Fatal("no query was answered locally")
	}
	for v := ruleExact + 1; v < ruleVariants; v++ {
		if decisive[v] == 0 {
			t.Fatalf("the generator no longer catches a rule that keeps the fact through %s", ruleNames[v])
		}
	}
}
