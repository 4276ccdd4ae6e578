package transport

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"rcuda/internal/faults"
	"rcuda/internal/protocol"
)

// ErrInjectedReset marks a connection torn down by an injected fault, the
// deterministic stand-in for a peer RST or abrupt process death. Retry
// logic classifies it exactly like a real connection reset.
var ErrInjectedReset = errors.New("transport: injected connection reset")

// truncatedSender is implemented by connections that can emit a frame cut
// short on the wire; the peer then observes a genuine truncation.
type truncatedSender interface {
	sendTruncated(m protocol.Message, keep int) error
}

// splitSender is implemented by connections that can emit one frame across
// two raw writes, exercising the peer's mid-frame reassembly.
type splitSender interface {
	sendSplit(m protocol.Message, firstN int) error
}

// FaultyConn wraps a Conn and injects the faults a faults.Plan schedules:
// connection resets, mid-frame truncations, latency spikes, partial
// writes, and stalls. With a nil or empty plan it is a transparent
// pass-through, so the same construction serves fault-free control runs.
//
// Faults are injected per operation, before the underlying Send or Recv.
// Kinds that tear the connection down (reset, truncate, stall) close the
// inner connection so both sides converge on a dead transport, exactly as
// a real network fault would leave them.
type FaultyConn struct {
	inner    Conn
	plan     *faults.Plan
	injected atomic.Int64
}

var (
	_ Conn            = (*FaultyConn)(nil)
	_ LandingReceiver = (*FaultyConn)(nil)
)

// NewFaultyConn wraps inner with the given fault plan. Its landing receive
// reports the arrival instants inner stamps, so a wrapped PipeEnd keeps the
// chunked data path's deterministic timing.
func NewFaultyConn(inner Conn, plan *faults.Plan) *FaultyConn {
	return &FaultyConn{inner: inner, plan: plan}
}

// SetOpTimeout implements DeadlineCapable by forwarding to the wrapped
// connection, so a server watchdog sees through the fault layer; a no-op
// when the inner connection has no deadline support.
func (f *FaultyConn) SetOpTimeout(d time.Duration) {
	if dc, ok := f.inner.(DeadlineCapable); ok {
		dc.SetOpTimeout(d)
	}
}

// sendFaulted applies d to a send of m and reports whether the operation
// was fully handled (err then being its result).
func (f *FaultyConn) sendFaulted(d faults.Decision, m protocol.Message) (handled bool, err error) {
	if d.Kind == faults.KindNone {
		return false, nil
	}
	f.injected.Add(1)
	switch d.Kind {
	case faults.KindLatency:
		time.Sleep(d.Delay)
		return false, nil
	case faults.KindStall:
		// A stalled send blocks until the operation deadline would fire,
		// then surfaces as a timeout on a connection in unknown state.
		time.Sleep(d.Delay)
		_ = f.inner.Close()
		return true, fmt.Errorf("transport: send stalled %v: %w", d.Delay, os.ErrDeadlineExceeded)
	case faults.KindPartialWrite:
		if sp, ok := f.inner.(splitSender); ok {
			return true, sp.sendSplit(m, d.KeepFor(m.WireSize()+protocol.FrameHeaderSize))
		}
		return false, nil // no byte stream to split; deliver cleanly
	case faults.KindTruncate:
		if ts, ok := f.inner.(truncatedSender); ok {
			if err := ts.sendTruncated(m, d.KeepFor(m.WireSize())); err != nil {
				return true, err
			}
			return true, fmt.Errorf("transport: frame truncated on the wire: %w", ErrInjectedReset)
		}
		fallthrough
	case faults.KindReset:
		_ = f.inner.Close()
		return true, fmt.Errorf("transport: send: %w", ErrInjectedReset)
	default:
		return false, nil
	}
}

// recvFaulted applies d to a receive and reports whether the operation was
// fully handled (err then being its result).
func (f *FaultyConn) recvFaulted(d faults.Decision) (handled bool, err error) {
	if d.Kind == faults.KindNone {
		return false, nil
	}
	f.injected.Add(1)
	switch d.Kind {
	case faults.KindLatency:
		time.Sleep(d.Delay)
		return false, nil
	case faults.KindStall:
		time.Sleep(d.Delay)
		_ = f.inner.Close()
		return true, fmt.Errorf("transport: recv stalled %v: %w", d.Delay, os.ErrDeadlineExceeded)
	case faults.KindTruncate:
		// The local read tears mid-frame: the payload is lost and the
		// connection is no longer frame-aligned, so it must die.
		_ = f.inner.Close()
		return true, fmt.Errorf("transport: recv: %w", ErrTruncatedFrame)
	case faults.KindReset:
		_ = f.inner.Close()
		return true, fmt.Errorf("transport: recv: %w", ErrInjectedReset)
	default:
		return false, nil
	}
}

// Send implements Conn.
func (f *FaultyConn) Send(m protocol.Message) error {
	if handled, err := f.sendFaulted(f.plan.Next(faults.DirSend), m); handled {
		return err
	}
	return f.inner.Send(m)
}

// Recv implements Conn.
func (f *FaultyConn) Recv() ([]byte, error) {
	payload, _, _, err := f.RecvLanding(nil)
	return payload, err
}

// RecvLanding implements LandingReceiver: one fault decision per receive,
// whether or not the receive lands, then the wrapped connection's own
// receive.
func (f *FaultyConn) RecvLanding(l Lander) (payload, landed []byte, at time.Duration, err error) {
	if handled, err := f.recvFaulted(f.plan.Next(faults.DirRecv)); handled {
		return nil, nil, NoArrival, err
	}
	return RecvLanding(f.inner, l)
}

// Close implements Conn.
func (f *FaultyConn) Close() error { return f.inner.Close() }

// Stats implements Conn, reporting the inner connection's counters plus
// the faults injected here.
func (f *FaultyConn) Stats() Stats {
	st := f.inner.Stats()
	st.FaultsInjected += f.injected.Load()
	return st
}
