package rcuda

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// ErrSessionLost reports that a connection fault interrupted an operation
// whose effects on the server are unknown, or that the session could not
// be recovered at all. Idempotent calls are retried transparently and only
// surface it after every attempt is exhausted; non-idempotent calls (a
// kernel launch, an allocation) surface it immediately rather than risk
// executing twice, and the caller decides whether to re-issue them — the
// session itself heals on the next call if reconnection is possible.
var ErrSessionLost = errors.New("rcuda: session lost")

// maxBackoff caps the exponential retry backoff.
const maxBackoff = 250 * time.Millisecond

// WithRetry enables transparent retry of idempotent operations after
// connection faults: up to maxAttempts tries with exponential backoff
// (base backoff, doubled per retry, capped, with deterministic ±50%
// jitter). Non-idempotent operations are never retried; they fail with
// ErrSessionLost instead. Pair with WithReconnect to actually survive a
// dead connection — without it, retries can only exhaust.
func WithRetry(maxAttempts int, backoff time.Duration) ClientOption {
	return func(c *Client) {
		if maxAttempts < 1 {
			maxAttempts = 1
		}
		if backoff <= 0 {
			backoff = 200 * time.Microsecond
		}
		c.retryMax = maxAttempts
		c.retryBackoff = backoff
	}
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

// backoffSleep sleeps the exponential backoff for the given retry number
// (1-based) with deterministic jitter from the client's seeded generator.
func (c *Client) backoffSleep(retry int) {
	d := c.retryBackoff << (retry - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	time.Sleep(time.Duration(float64(d) * (0.5 + c.jitter())))
}

// jitter draws the next backoff factor in [0, 1). The source is seeded, not
// time-derived, so a fault scenario replays with identical backoff
// decisions; it is created here, not in Open, because seeding costs more
// than a null call and most sessions never retry.
func (c *Client) jitter() float64 {
	if c.retryRNG == nil {
		c.retryRNG = rand.New(rand.NewSource(1))
	}
	return c.retryRNG.Float64()
}

// runRetry executes fn under the client's retry policy. fn performs one
// complete exchange (or one complete chunked transfer) on c.conn; runRetry
// classifies its error, replaces the connection when it died, and re-runs
// fn when the operation is idempotent.
func (c *Client) runRetry(op protocol.Op, fn func() error) error {
	if c.lost {
		return fmt.Errorf("rcuda: %v: %w", op, ErrSessionLost)
	}
	attempts := 1
	if c.retryMax > 1 && op.Idempotent() {
		attempts = c.retryMax
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.cstats.Retries.Add(1)
			c.backoffSleep(attempt)
		}
		if c.connBroken {
			if err := c.reconnect(); err != nil {
				if errors.Is(err, ErrSessionLost) {
					c.lost = true
					return fmt.Errorf("rcuda: %v: %w", op, err)
				}
				lastErr = err
				continue
			}
		}
		err := fn()
		if err == nil {
			if attempt > 0 {
				c.cstats.Recovered.Add(1)
			}
			return nil
		}
		if !isConnFault(err) {
			return err
		}
		c.cstats.ConnFaults.Add(1)
		if c.durable {
			c.connBroken = true
		}
		lastErr = err
	}
	if c.retryMax > 1 {
		if op.Idempotent() {
			return fmt.Errorf("rcuda: %v failed after %d attempts: %w: %w", op, attempts, ErrSessionLost, lastErr)
		}
		return fmt.Errorf("rcuda: %v interrupted: %w: %w", op, ErrSessionLost, lastErr)
	}
	return lastErr
}

// reconnect replaces a dead connection and reattaches to the durable
// session. Transient failures (redial refused, new connection dying during
// the reattach exchange) return a plain error so the retry loop can try
// again; a server that explicitly refuses the reattach — the session is
// gone — wraps ErrSessionLost, which latches the client as lost.
func (c *Client) reconnect() error {
	if c.dial == nil || !c.durable {
		return fmt.Errorf("rcuda: connection lost with no reconnect policy: %w", ErrSessionLost)
	}
	_ = c.conn.Close()
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("rcuda: redial: %w", err)
	}
	if err := conn.Send(&protocol.ReattachRequest{Session: c.sessionID}); err != nil {
		_ = conn.Close()
		return fmt.Errorf("rcuda: reattach send: %w", err)
	}
	payload, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("rcuda: reattach recv: %w", err)
	}
	resp, err := protocol.DecodeReattachResponse(payload)
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("rcuda: reattach decode: %w", err)
	}
	switch {
	case resp.Err == protocol.CodeServerBusy:
		// Transient: the server is over its connection cap or the old
		// handler has not parked the session yet. Back off and redial —
		// the session still exists, so this must NOT latch ErrSessionLost.
		_ = conn.Close()
		return fmt.Errorf("rcuda: reattach refused: %w", ErrServerBusy)
	case resp.Err == protocol.CodeSessionMigrated:
		// Redirect: the session was live-migrated and the broker has
		// re-pointed this client's route, so the next redial lands on its
		// new home with every allocation intact. Nothing is lost and
		// nothing replays, so this must NOT latch ErrSessionLost.
		_ = conn.Close()
		c.cstats.Migrations.Add(1)
		return fmt.Errorf("rcuda: reattach redirected: %w", ErrSessionMigrated)
	case resp.Err == protocol.CodeSessionEvicted:
		// Permanent: the parked-session GC reclaimed the session.
		_ = conn.Close()
		return fmt.Errorf("rcuda: reattach refused: %w: %w", ErrSessionEvicted, ErrSessionLost)
	default:
		if refuse := cudart.Error(resp.Err).AsError(); refuse != nil {
			_ = conn.Close()
			return fmt.Errorf("rcuda: server refused reattach (%v): %w", refuse, ErrSessionLost)
		}
	}
	c.conn = conn
	c.capMajor, c.capMinor = resp.CapabilityMajor, resp.CapabilityMinor
	c.connBroken = false
	// The immutable-reply cache is only trusted for the connection that
	// filled it; a replacement connection may lead anywhere.
	c.invalidateCache()
	c.cstats.Reconnects.Add(1)
	return nil
}
