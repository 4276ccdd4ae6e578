package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// Tracing lives entirely in the harness: spans are recorded around calls
// into each layer's public API from outside. End-to-end metrics are always
// taken with the tracer nil; a traced run only feeds the per-layer metrics
// and reports its own cost as harness.trace_overhead_pct.

// span is one timed interval. parent is the index of the span that caused
// it (-1 for a root); spans of one harness op share op.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         uint32
}

// Span names.
const (
	spanCall    = "client.call"    // one workload op as the application sees it
	spanOpen    = "rcuda.open"     // rcuda.Open: init (+hello) handshake
	spanCliSend = "client.send"    // client-side Conn.Send
	spanCliRecv = "client.recv"    // client-side Conn.Recv
	spanSrvRecv = "server.recv"    // server-side Conn.Recv (mostly waiting)
	spanSrvSend = "server.send"    // server-side Conn.Send
	spanHandle  = "server.handle"  // server Recv return → reply Send entry
	spanPoolOp  = "pool.open"      // broker.Pool.Open
	spanDial    = "endpoint.dial"  // harness-supplied Endpoint.Dial
	spanLoadgen = "loadgen.run"    // one loadgen.Run
	spanRefresh = "pool.refresh"   // broker.Pool.Refresh
	spanClose   = "session.close"  // Client.Close of a churned session
	spanTraffic = "session.malloc" // Malloc/Free on a churned session
)

// maxSpans caps the in-memory span log (40 B each); once full, further
// spans are dropped and the traced phase's derived metrics cover the
// recorded prefix. maxSpansWritten caps the span file the same way.
const (
	maxSpans        = 1 << 19
	maxSpansWritten = 1 << 17
)

// tracer is a fixed-capacity span log shared by the client goroutine and
// the server's handler goroutines. Slots are claimed with one atomic add
// and then written only by the claiming goroutine; the log is read after
// every goroutine has been joined.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int32
	// curOp and curCall are published by the client goroutine; the closed
	// loop guarantees any server-side activity belongs to the op in flight.
	curOp   atomic.Uint32
	curCall atomic.Int32
	curSend atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
	t.curCall.Store(-1)
	t.curSend.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when the log is full.
func (t *tracer) begin(name string, parent int32) int32 {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.n.Add(-1)
		return -1
	}
	t.spans[i] = span{name: name, start: t.now(), parent: parent, op: t.curOp.Load()}
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// recorded returns the claimed spans; one whose end is still zero was open
// when the run stopped and is skipped by the aggregations.
func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// op wraps one workload op in a root span under a fresh op id.
func (t *tracer) op(f func() error) error {
	if t == nil {
		return f()
	}
	t.curOp.Add(1)
	return t.call(spanCall, f)
}

// call wraps one call into a layer in a span under the current one.
func (t *tracer) call(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(name, t.curCall.Load())
	prev := t.curCall.Swap(id)
	err := f()
	t.curCall.Store(prev)
	t.end(id)
	return err
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, upto := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < upto {
				lo = upto
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals sums duration and self time per span name.
type spanTotal struct {
	count      int64
	dur, selfT int64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		t := out[s.name]
		t.count++
		t.dur += s.end - s.start
		t.selfT += self[i]
		out[s.name] = t
	}
	return out
}

// writeSpans dumps the span log as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	for i, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n",
			i, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// --- spanConn ----------------------------------------------------------------

// connSide says which end of a connection a spanConn wraps.
type connSide int

const (
	clientSide connSide = iota
	serverSide
)

// spanConn wraps a transport.Conn so every Send and Recv becomes a span.
// On the server side it also records the handle span between a Recv's
// return and the next Send's entry: decode, gate, dispatch, device, encode.
type spanConn struct {
	transport.Conn
	t       *tracer
	side    connSide
	handle  int32 // open server.handle span, -1 if none
	bulkMsg atomic.Int64
}

// bulkThreshold classes a message as a bulk frame for chunks_per_copy.
const bulkThreshold = 64 << 10

// timedSpanConn adds the simulated pipe's optional capabilities, so the
// chunked-transfer server still sees arrival stamps and scheduled sends
// through the wrapper.
type timedSpanConn struct {
	*spanConn
	tr transport.TimedReceiver
	ss transport.ScheduledSender
}

// wrapConn returns conn itself when t is nil, and otherwise a wrapper that
// implements exactly the optional transport interfaces conn does.
func wrapConn(conn transport.Conn, t *tracer, side connSide) transport.Conn {
	if t == nil {
		return conn
	}
	sc := &spanConn{Conn: conn, t: t, side: side, handle: -1}
	tr, isTR := conn.(transport.TimedReceiver)
	ss, isSS := conn.(transport.ScheduledSender)
	if isTR && isSS {
		return &timedSpanConn{spanConn: sc, tr: tr, ss: ss}
	}
	return sc
}

// bulkFrames counts the bulk frames that crossed the connection.
func (c *spanConn) bulkFrames() int64 { return c.bulkMsg.Load() }

// SetOpTimeout forwards transport.DeadlineCapable; every transport in the
// repository implements it, and a Conn that does not is left unbounded.
func (c *spanConn) SetOpTimeout(d time.Duration) {
	if dc, ok := c.Conn.(transport.DeadlineCapable); ok {
		dc.SetOpTimeout(d)
	}
}

func (c *spanConn) beforeSend(m protocol.Message) int32 {
	if m.WireSize() >= bulkThreshold {
		c.bulkMsg.Add(1)
	}
	if c.side == clientSide {
		id := c.t.begin(spanCliSend, c.t.curCall.Load())
		c.t.curSend.Store(id)
		return id
	}
	c.t.end(c.handle)
	c.handle = -1
	return c.t.begin(spanSrvSend, c.t.curSend.Load())
}

func (c *spanConn) beforeRecv() int32 {
	if c.side == clientSide {
		return c.t.begin(spanCliRecv, c.t.curCall.Load())
	}
	// A Recv that follows a Recv (streamed chunks) closes the handle span
	// the first one opened.
	c.t.end(c.handle)
	c.handle = -1
	return c.t.begin(spanSrvRecv, -1)
}

func (c *spanConn) afterRecv(id int32, payload []byte, err error) {
	c.t.end(id)
	if err != nil {
		return
	}
	if len(payload) >= bulkThreshold {
		c.bulkMsg.Add(1)
	}
	if c.side == serverSide {
		c.handle = c.t.begin(spanHandle, c.t.curSend.Load())
	}
}

// Send implements transport.Conn.
func (c *spanConn) Send(m protocol.Message) error {
	id := c.beforeSend(m)
	err := c.Conn.Send(m)
	c.t.end(id)
	return err
}

// Recv implements transport.Conn.
func (c *spanConn) Recv() ([]byte, error) {
	id := c.beforeRecv()
	payload, err := c.Conn.Recv()
	c.afterRecv(id, payload, err)
	return payload, err
}

// SendAt implements transport.ScheduledSender.
func (c *timedSpanConn) SendAt(m protocol.Message, notBefore time.Duration) error {
	id := c.beforeSend(m)
	err := c.ss.SendAt(m, notBefore)
	c.t.end(id)
	return err
}

// RecvTimed implements transport.TimedReceiver.
func (c *timedSpanConn) RecvTimed() ([]byte, time.Duration, error) {
	id := c.beforeRecv()
	payload, at, err := c.tr.RecvTimed()
	c.afterRecv(id, payload, err)
	return payload, at, err
}

var (
	_ transport.DeadlineCapable = (*spanConn)(nil)
	_ transport.TimedReceiver   = (*timedSpanConn)(nil)
	_ transport.ScheduledSender = (*timedSpanConn)(nil)
)
