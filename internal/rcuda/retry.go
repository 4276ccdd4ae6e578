package rcuda

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// ErrSessionLost reports that a connection fault interrupted an operation
// whose effects on the server are unknown, or that the session could not be
// recovered at all. Idempotent calls are retried transparently and only
// surface it once the retry budget is spent or a redial is refused outright;
// non-idempotent calls (a kernel launch, an allocation) surface it as soon as
// a fault follows their send rather than risk executing twice, and the caller
// decides whether to re-issue them — a durable session itself heals on the
// next call if reconnection is possible.
var ErrSessionLost = errors.New("rcuda: session lost")

// The retry backoff starts at baseBackoff and doubles per retry up to
// maxBackoff.
const (
	baseBackoff = 200 * time.Microsecond
	maxBackoff  = 250 * time.Millisecond
)

// WithRetry gives every call a time budget: connection faults are retried
// with exponential backoff (baseBackoff, doubled per retry, capped at
// maxBackoff) while the budget lasts, and each send and each receive of an
// attempt is bounded by what was left of the budget when the attempt
// began, so a daemon that stops answering fails the call with
// ErrSessionLost wrapping os.ErrDeadlineExceeded instead of blocking it.
// The bound holds per send and receive, not per attempt: a chunked copy
// whose daemon answers every chunk just in time can outrun the budget. A
// failed reconnect is retried for every operation, since nothing was sent
// on the new connection, unless the redial was refused outright (nothing
// listens at the address); a fault after the send re-runs only idempotent
// operations. Pair with WithReconnect to survive a dead connection:
// without it, the first connection fault ends the session, since the
// connection may still carry the reply the call gave up on, and every
// later call fails with ErrSessionLost. A budget of zero or less leaves
// the client as without the option: one attempt, unbounded.
func WithRetry(budget time.Duration) ClientOption {
	return func(c *Client) { c.retryBudget = max(budget, 0) }
}

// WithReconnect gives the client a way to replace a dead connection: dial
// must return a fresh connection to the same server. Open then negotiates
// a durable session (see protocol.SessionHelloRequest), and after a
// connection fault the client redials and reattaches to it, recovering
// every device handle and allocation.
func WithReconnect(dial func() (transport.Conn, error)) ClientOption {
	return func(c *Client) { c.dial = dial }
}

// isConnFault reports whether err is a connection-level failure — the
// class a retry on a fresh connection can heal — as opposed to a CUDA
// error or protocol violation, which would fail identically on any
// connection.
func isConnFault(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, transport.ErrClosed) ||
		errors.Is(err, transport.ErrInjectedReset) ||
		errors.Is(err, transport.ErrTruncatedFrame) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// backoff sleeps before the given retry (1-based) and reports true, or
// reports false at once when the sleep would reach the budget's end.
func backoff(retry int, end time.Time) bool {
	d := min(baseBackoff<<min(retry-1, 11), maxBackoff)
	if time.Until(end) <= d {
		return false
	}
	time.Sleep(d)
	return true
}

// arm bounds every send and receive on conn by what is left until end; a
// zero end (no budget) arms nothing, and a spent one still arms a bound,
// since zero would clear it.
func arm(conn transport.Conn, end time.Time) {
	if dc, ok := conn.(transport.DeadlineCapable); ok && !end.IsZero() {
		dc.SetOpTimeout(max(time.Until(end), time.Nanosecond))
	}
}

// deadline is the end of a call's budget starting now; zero without one.
func (c *Client) deadline() (end time.Time) {
	if c.retryBudget > 0 {
		end = time.Now().Add(c.retryBudget)
	}
	return end
}

// runRetry executes fn under the client's retry policy. fn performs one
// complete exchange (or one complete chunked transfer) on c.conn; runRetry
// arms the connection with what is left of the call's budget, classifies
// fn's error, replaces the connection when it died, and re-runs fn when
// the operation is idempotent — or runs it for the first time when only
// the reconnect failed.
func (c *Client) runRetry(op protocol.Op, fn func() error) error {
	if c.lost {
		return fmt.Errorf("rcuda: %v: %w", op, ErrSessionLost)
	}
	end := c.deadline()
	var lastErr error
	for retry := 0; ; retry++ {
		if retry > 0 {
			if !backoff(retry, end) { // a zero end has no time left
				break
			}
			c.cstats.Retries.Add(1)
		}
		if c.connBroken {
			if err := c.reconnect(end); err != nil {
				if errors.Is(err, ErrSessionLost) {
					c.lost = true
					return fmt.Errorf("rcuda: %v: %w", op, err)
				}
				lastErr = err
				if errors.Is(err, syscall.ECONNREFUSED) {
					// Nothing listens there: unlike a busy refusal, waiting
					// out the budget brings no daemon that holds the session.
					break
				}
				continue
			}
		}
		arm(c.conn, end)
		err := fn()
		if err == nil {
			if retry > 0 {
				c.cstats.Recovered.Add(1)
			}
			return nil
		}
		if !errors.As(err, new(cudart.Error)) {
			// A result code leaves the dialogue in step; nothing else does.
			c.faulted = true
		}
		if !isConnFault(err) {
			return err
		}
		c.cstats.ConnFaults.Add(1)
		lastErr = err
		if !c.durable {
			if !end.IsZero() {
				// A deadline may have left this attempt's reply on its way
				// or cut it short, and there is no session to reattach: the
				// connection ends with it, so no later call reads that reply.
				_ = c.conn.Close()
				c.lost = true
			}
			break
		}
		c.connBroken = true
		if !op.Idempotent() {
			// It may have run: it is sent at most once.
			break
		}
	}
	switch {
	case end.IsZero():
		return lastErr
	case op.Idempotent() && c.durable:
		return fmt.Errorf("rcuda: %v failed within %v: %w: %w", op, c.retryBudget, ErrSessionLost, lastErr)
	}
	return fmt.Errorf("rcuda: %v interrupted: %w: %w", op, ErrSessionLost, lastErr)
}

// reconnect replaces a dead connection and reattaches to the durable
// session. Transient failures (redial refused, new connection dying during
// the reattach exchange) return a plain error so the retry loop can try
// again; a server that explicitly refuses the reattach — the session is
// gone — wraps ErrSessionLost, which latches the client as lost. The
// reattach exchange is bounded by end, as the call's attempts are.
func (c *Client) reconnect(end time.Time) error {
	if c.dial == nil || !c.durable {
		return fmt.Errorf("rcuda: connection lost with no reconnect policy: %w", ErrSessionLost)
	}
	_ = c.conn.Close()
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("rcuda: redial: %w", err)
	}
	arm(conn, end)
	resp, err := c.reattach(conn)
	if err != nil {
		_ = conn.Close()
		return err
	}
	c.conn = conn
	c.capMajor, c.capMinor = resp.CapabilityMajor, resp.CapabilityMinor
	c.connBroken, c.faulted = false, false
	// The immutable-reply cache is only trusted for the connection that
	// filled it; a replacement connection may lead anywhere.
	c.invalidateCache()
	c.cstats.Reconnects.Add(1)
	return nil
}

// reattach asks the server on conn to resume the session and returns its
// acceptance; a refusal is an error, which wraps ErrSessionLost only when
// the session is gone.
func (c *Client) reattach(conn transport.Conn) (*protocol.ReattachResponse, error) {
	if err := conn.Send(&protocol.ReattachRequest{Session: c.sessionID}); err != nil {
		return nil, fmt.Errorf("rcuda: reattach send: %w", err)
	}
	payload, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("rcuda: reattach recv: %w", err)
	}
	resp, err := protocol.DecodeReattachResponse(payload)
	if err != nil {
		return nil, fmt.Errorf("rcuda: reattach decode: %w", err)
	}
	switch resp.Err {
	case protocol.CodeServerBusy:
		// Transient: the server is over its connection cap or the old
		// handler has not parked the session yet. Back off and redial —
		// the session still exists, so this must NOT latch ErrSessionLost.
		return nil, fmt.Errorf("rcuda: reattach refused: %w", ErrServerBusy)
	case protocol.CodeSessionMigrated:
		// Redirect: the session was live-migrated and the broker has
		// re-pointed this client's route, so the next redial lands on its
		// new home with every allocation intact. Nothing is lost and
		// nothing replays, so this must NOT latch ErrSessionLost.
		c.cstats.Migrations.Add(1)
		return nil, fmt.Errorf("rcuda: reattach redirected: %w", ErrSessionMigrated)
	case protocol.CodeSessionEvicted:
		// Permanent: the parked-session GC reclaimed the session.
		return nil, fmt.Errorf("rcuda: reattach refused: %w: %w", ErrSessionEvicted, ErrSessionLost)
	}
	if refuse := cudart.Error(resp.Err).AsError(); refuse != nil {
		return nil, fmt.Errorf("rcuda: server refused reattach (%v): %w", refuse, ErrSessionLost)
	}
	return resp, nil
}
