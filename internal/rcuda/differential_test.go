package rcuda

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// The differential engine: seeded random programs of CUDA calls, each run
// on the local runtime, on an unbatched client, on the local runtime as a
// batching client answers it (batchingModel, CUDA's asynchronous error
// model read from the op table) and on a batching client. The unbatched
// client must answer every call and read back every byte as the local
// runtime does, the batching client as the model does, and the batching
// client must answer locally exactly the event queries the model's
// local-answer rule covers. A diffConfig says how programs are drawn; the
// fold, the event-completion and the chunked-copy tests at the end of this
// file are its three configurations.

// diffRuntime is what a program calls.
type diffRuntime interface {
	cudart.AsyncRuntime
	Memset(ptr cudart.DevicePtr, value byte, size uint32) error
	SetDevice(device int) error
}

const (
	diffBufBytes = 256 // one 8x8 float32 matrix
	diffLive     = 3   // buffers 0-2 are live; 3 was freed; 4 is a guess
	diffHandles  = 3   // streams {default, created, invalid}, events {created, created, never created}
)

// diffCall is one call of a program. Handles are indices resolved per
// runtime: buf, a and b into the pointer table, stream and event into the
// handle tables (see diffHandles).
type diffCall struct {
	op                    protocol.Op
	buf, a, b             int
	stream, event, device int
	kernel                string
	m, size               uint32
	value                 byte
	data                  []byte
}

// diffProgram sets up the same buffers, stream and two events on every
// device of any runtime, makes its calls, and reads every live buffer back
// on every device.
type diffProgram struct {
	init    [diffLive][]byte
	calls   []diffCall
	closing int // the call that closes the batched ones before it, or -1
	maxOps  int // the batching client's frame budget
}

// diffConfig is one configuration of the engine: the options of both
// clients, the devices of each runtime, the frame budgets a program draws from, and how it draws its
// calls — calls[0] + Intn(calls[1]) of them, each from handles and then
// one weighted row of body, and with closing set, one more from closing.
type diffConfig struct {
	opts    []ClientOption // of both clients
	devices int
	budgets []int
	calls   [2]int
	handles func(g *diffGen) diffCall
	body    []diffDraw
	closing []diffDraw
}

// diffDraw is one op a call may draw, its weight among its table's rows,
// and what it draws for its operands.
type diffDraw struct {
	op     protocol.Op
	weight int
	params func(g *diffGen, c *diffCall)
}

// diffGen is a program's random source. Half the programs are dirty: they
// draw invalid handles and failing launches now and then.
type diffGen struct {
	*rand.Rand
	dirty bool
}

func (g *diffGen) floats(n int) []byte {
	f := make([]float32, n/4)
	for i := range f {
		f[i] = g.Float32()*2 - 1
	}
	return cudart.Float32Bytes(f)
}

// pick draws an index below valid or, for one in eight draws of a dirty
// program, invalid.
func (g *diffGen) pick(valid, invalid int) int {
	if g.dirty && g.Intn(8) == 0 {
		return invalid
	}
	return g.Intn(valid)
}

// draw fills c from one row of table.
func (g *diffGen) draw(c diffCall, table []diffDraw) diffCall {
	total := 0
	for _, d := range table {
		total += d.weight
	}
	r := g.Intn(total)
	for _, d := range table {
		if r < d.weight {
			c.op = d.op
			if d.params != nil {
				d.params(g, &c)
			}
			break
		}
		r -= d.weight
	}
	return c
}

func (cfg diffConfig) gen(seed int64) diffProgram {
	g := &diffGen{Rand: rand.New(rand.NewSource(seed))}
	p := diffProgram{closing: -1}
	for i := range p.init {
		p.init[i] = g.floats(diffBufBytes)
	}
	p.maxOps = cfg.budgets[g.Intn(len(cfg.budgets))]
	g.dirty = g.Intn(2) == 0
	for n := cfg.calls[0] + g.Intn(cfg.calls[1]); n > 0; n-- {
		p.calls = append(p.calls, g.draw(cfg.handles(g), cfg.body))
	}
	if cfg.closing != nil {
		p.closing = len(p.calls)
		p.calls = append(p.calls, g.draw(diffCall{}, cfg.closing))
	}
	for d := 0; d < cfg.devices; d++ {
		p.calls = append(p.calls, diffCall{op: protocol.OpSetDevice, device: d})
		for i := 0; i < diffLive; i++ {
			p.calls = append(p.calls, diffCall{op: protocol.OpMemcpyToHost, buf: i})
		}
	}
	return p
}

// run sets the program's state up on every device of rt, the last first,
// and makes its calls — through m when it is not nil — returning each
// call's code with the bytes the read-backs returned. Every device hands
// out the same pointers and handles.
func (p diffProgram) run(rt diffRuntime, devices int, m *batchingModel) (codes []cudart.Error, mem []byte, err error) {
	var ptrs [diffLive + 2]cudart.DevicePtr
	streams := [diffHandles]cudart.Stream{0, 0, 99}
	events := [diffHandles]cudart.Event{0, 0, 77}
	var setup []error
	for d := devices - 1; d >= 0; d-- {
		setup = append(setup, rt.SetDevice(d))
		for i := range diffLive + 1 {
			ptrs[i], err = rt.Malloc(diffBufBytes)
			setup = append(setup, err)
		}
		setup = append(setup, rt.Free(ptrs[diffLive]))
		for i, b := range p.init {
			setup = append(setup, rt.MemcpyToDevice(ptrs[i], b))
		}
		streams[1], err = rt.StreamCreate()
		setup = append(setup, err)
		for i := range 2 {
			events[i], err = rt.EventCreate()
			setup = append(setup, err)
		}
	}
	if err := errors.Join(setup...); err != nil {
		return nil, nil, err
	}
	ptrs[diffLive+1] = ptrs[0] + 1<<20
	for _, c := range p.calls {
		s, e := streams[c.stream], events[c.event]
		var made cudart.Event
		var dst []byte
		if c.op == protocol.OpMemcpyToHost {
			dst = make([]byte, diffBufBytes)
		}
		call := func() error {
			switch c.op {
			case protocol.OpMemset:
				return rt.Memset(ptrs[c.buf], c.value, c.size)
			case protocol.OpMemcpyToDeviceAsync:
				return rt.MemcpyToDeviceAsync(ptrs[c.buf], c.data, s)
			case protocol.OpLaunch:
				return rt.LaunchAsync(c.kernel, cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: 8, Y: 8, Z: 1}, 0,
					gpu.PackParams(uint32(ptrs[c.a]), uint32(ptrs[c.b]), uint32(ptrs[c.buf]), c.m), s)
			case protocol.OpEventRecord:
				return rt.EventRecord(e, s)
			case protocol.OpDeviceSynchronize:
				return rt.DeviceSynchronize()
			case protocol.OpStreamSynchronize:
				return rt.StreamSynchronize(s)
			case protocol.OpEventSynchronize:
				return rt.EventSynchronize(e)
			case protocol.OpStreamQuery:
				return rt.StreamQuery(s)
			case protocol.OpEventQuery:
				return rt.EventQuery(e)
			case protocol.OpEventDestroy:
				return rt.EventDestroy(e)
			case protocol.OpEventCreate:
				var err error
				made, err = rt.EventCreate()
				return err
			case protocol.OpSetDevice:
				return rt.SetDevice(c.device)
			case protocol.OpMemcpyToHost:
				return rt.MemcpyToHost(dst, ptrs[c.buf])
			case protocol.OpMemcpyToDevice:
				return rt.MemcpyToDevice(ptrs[c.buf], c.data)
			}
			return fmt.Errorf("the engine does not run %v", c.op)
		}
		err := m.call(c.op, e, call)
		// A call the model does not run answers as the client's unsent one:
		// no event, and a read-back of zeros.
		if c.op == protocol.OpEventCreate {
			events[c.event] = made
		}
		mem = append(mem, dst...)
		var ce cudart.Error
		if err != nil && !errors.As(err, &ce) {
			return nil, nil, fmt.Errorf("%v: %w", c.op, err)
		}
		codes = append(codes, ce)
	}
	return codes, mem, nil
}

// Variants of the local-answer rule for EventQuery: the rule itself, and
// the rule with one of its invalidations dropped — each a mutation the
// event-completion configuration must catch.
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
// answer it locally, and the model's answer.
type modelQuery struct {
	covers [ruleVariants]bool
	code   cudart.Error
}

// batchingModel answers a program's calls on the local runtime as a
// batching client does. An op the table marks batchable
// (protocol.BatchableOp) runs and answers success; the first failure since
// the last sync point is instead the answer of the next call that is not
// batchable, which then does not run. That holds whether the call closes
// the frame (protocol.ClosesBatch: the server skips a closing sub-op after
// a failure) or follows it in an exchange of its own (the client reports
// the parked failure without sending the call). The model also keeps the
// local-answer rule, once exactly and once per dropped invalidation.
type batchingModel struct {
	*cudart.Local
	maxOps  int
	pending int          // batched calls not yet flushed
	failure cudart.Error // first batched failure since the last sync point
	facts   [ruleVariants]eventFact
	queries []modelQuery
}

// call answers one call of op, on event e where it takes one; run makes it
// on the local runtime. Without a model, the call is simply made.
func (m *batchingModel) call(op protocol.Op, e cudart.Event, run func() error) error {
	if m == nil {
		return run()
	}
	// A record or destroy of e and any SetDevice clear the fact of every
	// variant but the one that keeps it through that call.
	keeper, all := -1, op == protocol.OpSetDevice
	switch op {
	case protocol.OpEventRecord:
		keeper = ruleKeepsRecord
	case protocol.OpEventDestroy:
		keeper = ruleKeepsDestroy
	case protocol.OpSetDevice:
		keeper = ruleKeepsSetDevice
	case protocol.OpEventQuery:
		var q modelQuery
		for v, f := range m.facts {
			q.covers[v] = f.ok && f.e == e && m.pending == 0 && m.failure == cudart.Success
		}
		m.queries = append(m.queries, q)
	}
	for v := range m.facts {
		if keeper >= 0 && v != keeper && (all || m.facts[v].e == e) {
			m.facts[v].ok = false
		}
	}
	var err error
	if protocol.BatchableOp(op) {
		var ce cudart.Error
		if errors.As(run(), &ce) && m.failure == cudart.Success {
			m.failure = ce
		}
		if m.pending++; m.pending >= m.maxOps {
			m.pending = 0
		}
		return nil
	}
	m.pending = 0
	if err = m.failure.AsError(); err != nil {
		m.failure = cudart.Success
	} else {
		err = run()
	}
	switch op {
	case protocol.OpEventSynchronize:
		if err == nil {
			for v := range m.facts {
				m.facts[v] = eventFact{e, true}
			}
		}
	case protocol.OpEventQuery:
		errors.As(err, &m.queries[len(m.queries)-1].code)
	}
	return err
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

// simDevices makes n devices, each on a virtual clock of its own.
func simDevices(n int) []*gpu.Device {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{Clock: vclock.NewSim()})
	}
	return devs
}

// check runs the programs of seeds 1 to seeds through the engine and hands
// each, with the local runtime's codes and the model's, to tally.
func (cfg diffConfig) check(t *testing.T, seeds int64, tally func(p diffProgram, want, exp []cudart.Error, m *batchingModel)) {
	t.Helper()
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	img := moduleImage(t, calib.MM)
	openLocal := func() *cudart.Local {
		devs := simDevices(cfg.devices)
		l, err := cudart.OpenLocal(devs[0], mod, cudart.Preinitialized(), cudart.ExtraDevices(devs[1:]...))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// The link charges a clock of its own, so a device's clock moves only
	// with its own work, as the local runtime's does.
	remote := func(opts ...ClientOption) (*Client, func()) {
		devs := simDevices(cfg.devices)
		d := NewSimDaemon(NewServer(devs[0], WithDevices(devs[1:]...)), netsim.GigaE(), vclock.NewSim(), nil)
		return openOn(t, d, img, opts...)
	}
	batched, closing := map[protocol.Op]bool{}, map[protocol.Op]bool{}
	for seed := int64(1); seed <= seeds; seed++ {
		p := cfg.gen(seed)
		// do runs p on rt, through m if it is not nil, and then calls done.
		do := func(what string, rt diffRuntime, m *batchingModel, done func()) ([]cudart.Error, []byte) {
			t.Helper()
			codes, mem, err := p.run(rt, cfg.devices, m)
			done()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, what, err)
			}
			return codes, mem
		}
		local := openLocal()
		want, wantMem := do("local", local, nil, func() { _ = local.Close() })
		plain, closePlain := remote(cfg.opts...)
		got, mem := do("unbatched", plain, nil, closePlain)
		if fmt.Sprint(got) != fmt.Sprint(want) || !bytes.Equal(mem, wantMem) {
			t.Fatalf("seed %d: unbatched client answered %v, local %v (memory equal: %v)", seed, got, want, bytes.Equal(mem, wantMem))
		}
		if hits := plain.Stats().CacheHits; hits != 0 {
			t.Fatalf("seed %d: the unbatched client answered %d calls locally", seed, hits)
		}

		model := &batchingModel{Local: openLocal(), maxOps: cmp.Or(p.maxOps, DefaultBatchOps)}
		exp, expMem := do("model", model.Local, model, func() { _ = model.Close() })
		client, closeBatched := remote(append(cfg.opts, WithBatching(p.maxOps, 0))...)
		probed := &probedClient{Client: client}
		got, mem = do("batched", probed, nil, closeBatched)
		if fmt.Sprint(got) != fmt.Sprint(exp) || !bytes.Equal(mem, expMem) {
			t.Fatalf("seed %d (frame budget %d): batching client answered %v, want %v from local %v (memory equal: %v)",
				seed, p.maxOps, got, exp, want, bytes.Equal(mem, expMem))
		}
		for i, q := range model.queries {
			covered := q.covers[ruleExact]
			if probed.local[i] != covered {
				t.Fatalf("seed %d query %d: answered locally %v, the rule says %v", seed, i, probed.local[i], covered)
			}
			if covered && probed.sent[i] != 0 {
				t.Fatalf("seed %d query %d: a local answer sent %d messages", seed, i, probed.sent[i])
			}
		}
		if p.closing >= 0 {
			for _, c := range p.calls[:p.closing] {
				batched[c.op] = true
			}
			closing[p.calls[p.closing].op] = true
		}
		tally(p, want, exp, model)
	}
	// The ops drawn before a closing call must be the op table's batchable
	// column and the closing ones its closes column, so a row that gains or
	// loses either fails here, named. Codes run up to 255, far past the
	// table's last row; a code the table does not declare is neither.
	for op := protocol.Op(0); cfg.closing != nil && op < 256; op++ {
		if batched[op] != protocol.BatchableOp(op) {
			t.Errorf("%v: batchable in the op table %v, drawn as batched by the engine %v", op, protocol.BatchableOp(op), batched[op])
		}
		if closing[op] != protocol.ClosesBatch(op) {
			t.Errorf("%v: closes a batch in the op table %v, drawn as closing by the engine %v", op, protocol.ClosesBatch(op), closing[op])
		}
	}
}

// TestFoldMatchesLocalAndUnbatched is the fold configuration: programs of
// batchable calls on one device, closed by a synchronization or completion
// query that the batching client folds into the frame it flushes. Dirty
// programs draw an invalid handle for one in eight handles and launch a
// kernel that fails for one in four launches.
func TestFoldMatchesLocalAndUnbatched(t *testing.T) {
	// A buffer is a live one or, now and then in a dirty program, the freed
	// one or the guess.
	buf := func(g *diffGen) int { return g.pick(diffLive, diffLive+g.Intn(2)) }
	closingHandles := func(g *diffGen, c *diffCall) { c.stream, c.event = 1+g.pick(1, 1), g.pick(2, 2) }
	cfg := diffConfig{
		devices: 1,
		budgets: []int{0, 2, 3},
		calls:   [2]int{1, 8},
		handles: func(g *diffGen) diffCall {
			return diffCall{stream: g.pick(2, 2), event: g.pick(2, 2), buf: buf(g)}
		},
		body: []diffDraw{
			{protocol.OpMemset, 1, func(g *diffGen, c *diffCall) {
				c.value, c.size = byte(g.Intn(256)), uint32(1+g.Intn(diffBufBytes))
			}},
			{protocol.OpMemcpyToDeviceAsync, 1, func(g *diffGen, c *diffCall) {
				c.data = g.floats(4 * (1 + g.Intn(diffBufBytes/4)))
			}},
			{protocol.OpLaunch, 1, func(g *diffGen, c *diffCall) {
				c.kernel, c.m, c.a, c.b = kernels.SgemmKernel, 8, buf(g), buf(g)
				switch {
				case !g.dirty:
				case g.Intn(8) == 0:
					c.kernel = "no-such-kernel"
				case g.Intn(8) == 0:
					c.m = 16 // operands larger than their buffers
				}
			}},
			{protocol.OpEventRecord, 1, nil},
		},
		closing: []diffDraw{
			{protocol.OpDeviceSynchronize, 1, closingHandles},
			{protocol.OpStreamSynchronize, 1, closingHandles},
			{protocol.OpEventSynchronize, 1, closingHandles},
			{protocol.OpStreamQuery, 1, closingHandles},
			{protocol.OpEventQuery, 1, closingHandles},
		},
	}
	// The shapes the fold rules are about must each come up: a closing call
	// that answers not ready or fails on its own, one an earlier failure
	// keeps from running although it would have failed differently, and
	// frames the budget splits.
	var notReady, ownFailure, masked, split int
	cfg.check(t, 500, func(p diffProgram, want, exp []cudart.Error, _ *batchingModel) {
		switch c := p.closing; {
		case exp[c] != want[c]:
			if want[c] != cudart.Success {
				masked++
			}
		case want[c] == cudart.ErrorNotReady:
			notReady++
		case want[c] != cudart.Success:
			ownFailure++
		}
		if p.maxOps > 0 && p.closing > p.maxOps {
			split++
		}
	})
	t.Logf("closing call not ready %d, failing itself %d, failing but kept from running by an earlier failure %d; frames split %d",
		notReady, ownFailure, masked, split)
	if notReady == 0 || ownFailure == 0 || masked == 0 || split == 0 {
		t.Fatal("the generator no longer covers every fold rule")
	}
}

// TestEventCompletionMatchesLocal is the event-completion configuration:
// programs over two devices that create, record, synchronize, query and
// destroy events (a destroyed handle stays in use, and both devices hand
// out the same ids), launch kernels and switch devices. The batching client
// answers a query of the event it has just synchronized without asking the
// server. Dirty programs launch a kernel that fails for one in six launches
// and select a device that does not exist for one in six selections.
func TestEventCompletionMatchesLocal(t *testing.T) {
	cfg := diffConfig{
		devices: 2,
		budgets: []int{0, 1, 2, 3},
		calls:   [2]int{8, 24},
		handles: func(g *diffGen) diffCall {
			c := diffCall{event: diffHandles - 1}
			if g.Intn(10) != 0 {
				c.event = g.Intn(diffHandles - 1)
			}
			c.stream, c.buf = g.Intn(2), g.Intn(diffLive)
			return c
		},
		body: []diffDraw{
			{protocol.OpLaunch, 8, func(g *diffGen, c *diffCall) {
				c.kernel, c.m, c.a, c.b = kernels.SgemmKernel, 8, g.Intn(diffLive), g.Intn(diffLive)
				if g.dirty && g.Intn(6) == 0 {
					c.kernel = "no-such-kernel"
				}
			}},
			{protocol.OpEventRecord, 8, nil},
			{protocol.OpEventSynchronize, 6, nil},
			{protocol.OpEventQuery, 8, nil},
			{protocol.OpEventDestroy, 2, nil},
			{protocol.OpEventCreate, 2, func(g *diffGen, c *diffCall) { c.event = g.Intn(diffHandles - 1) }},
			{protocol.OpSetDevice, 4, func(g *diffGen, c *diffCall) {
				if c.device = g.Intn(2); g.dirty && g.Intn(6) == 0 {
					c.device = 2
				}
			}},
			{protocol.OpMemcpyToHost, 1, nil},
			{protocol.OpDeviceSynchronize, 1, nil},
		},
	}
	// How many queries the rule answers, and for each dropped invalidation
	// how many queries that variant would answer success where the local
	// runtime does not — the programs that catch the mutation.
	var answered int
	var decisive [ruleVariants]int
	cfg.check(t, 1000, func(_ diffProgram, _, _ []cudart.Error, m *batchingModel) {
		for _, q := range m.queries {
			if q.covers[ruleExact] {
				answered++
			}
			for v := ruleExact + 1; v < ruleVariants; v++ {
				if q.covers[v] && !q.covers[ruleExact] && q.code != cudart.Success {
					decisive[v]++
				}
			}
		}
	})
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

// TestChunkedCopiesMatchLocal is the chunked configuration: both clients
// split every synchronous copy — the programs' own, their setup's and their
// read-backs — into 40-byte chunks, so a buffer crosses the wire as six
// full chunks and a short one. Programs copy to and from buffers among
// memsets and launches; dirty programs copy to and from the freed buffer
// and the guess, which the server must refuse at Begin with the local
// runtime's cudaError_t.
func TestChunkedCopiesMatchLocal(t *testing.T) {
	buf := func(g *diffGen) int { return g.pick(diffLive, diffLive+g.Intn(2)) }
	cfg := diffConfig{
		opts:    []ClientOption{WithChunkedTransfers(1, 40)},
		devices: 1,
		budgets: []int{0, 2},
		calls:   [2]int{4, 12},
		handles: func(g *diffGen) diffCall { return diffCall{stream: g.Intn(2), buf: buf(g)} },
		body: []diffDraw{
			{protocol.OpMemcpyToDevice, 4, func(g *diffGen, c *diffCall) {
				c.data = g.floats(4 * (1 + g.Intn(diffBufBytes/4)))
			}},
			{protocol.OpMemcpyToHost, 4, nil},
			{protocol.OpMemset, 1, func(g *diffGen, c *diffCall) {
				c.value, c.size = byte(g.Intn(256)), uint32(1+g.Intn(diffBufBytes))
			}},
			{protocol.OpLaunch, 1, func(g *diffGen, c *diffCall) {
				c.kernel, c.m, c.a, c.b = kernels.SgemmKernel, 8, g.Intn(diffLive), g.Intn(diffLive)
			}},
			{protocol.OpDeviceSynchronize, 1, nil},
		},
	}
	// Both outcomes of a chunked copy must come up: one that moves its
	// chunks and one refused at Begin.
	var moved, refused int
	cfg.check(t, 300, func(p diffProgram, want, _ []cudart.Error, _ *batchingModel) {
		for i, c := range p.calls {
			if c.op != protocol.OpMemcpyToDevice && c.op != protocol.OpMemcpyToHost {
				continue
			}
			if want[i] == cudart.Success {
				moved++
			} else {
				refused++
			}
		}
	})
	t.Logf("chunked copies moved %d, refused at Begin %d", moved, refused)
	if moved == 0 || refused == 0 {
		t.Fatal("the generator no longer covers both outcomes of a chunked copy")
	}
}
