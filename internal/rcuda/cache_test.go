package rcuda

import (
	"errors"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// TestDeviceQueryCacheServesRepeatedPolls pins the cache behavior an
// inference loop depends on: repeated device count/properties polls cost
// one round trip each in total, not each time.
func TestDeviceQueryCacheServesRepeatedPolls(t *testing.T) {
	client, _, cliEnd, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(0, 0))
	defer cleanup()

	before := cliEnd.Stats().MessagesSent
	var firstName string
	for i := 0; i < 5; i++ {
		n, err := client.DeviceCount()
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("device count %d, want 1", n)
		}
		p, err := client.DeviceProperties()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstName = p.Name
		} else if p.Name != firstName {
			t.Fatalf("cached properties drifted: %q vs %q", p.Name, firstName)
		}
	}
	if sent := cliEnd.Stats().MessagesSent - before; sent != 2 {
		t.Fatalf("10 polls sent %d messages, want 2", sent)
	}
	cs := client.Stats()
	if cs.CacheMisses != 2 || cs.CacheHits != 8 {
		t.Fatalf("cache stats %+v, want 2 misses and 8 hits", cs)
	}
}

// TestCachePerDeviceProperties checks that properties are cached per
// selected device on a multi-GPU server, keyed by cudaSetDevice.
func TestCachePerDeviceProperties(t *testing.T) {
	clk := vclock.NewSim()
	second := gpu.New(gpu.Config{Clock: clk, Name: "Tesla C1060 (second)"})
	srvOpts := []ServerOption{WithDevices(second)}
	client, _, _, cleanup := startBatchSession(t, netsim.GigaE(), srvOpts, WithBatching(0, 0))
	defer cleanup()

	if err := client.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	p1, err := client.DeviceProperties()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Name != "Tesla C1060 (second)" {
		t.Fatalf("device 1 properties %q", p1.Name)
	}
	if err := client.SetDevice(0); err != nil {
		t.Fatal(err)
	}
	p0, err := client.DeviceProperties()
	if err != nil {
		t.Fatal(err)
	}
	if p0.Name == p1.Name {
		t.Fatal("device 0 served device 1's cached properties")
	}
	// Both devices cached now; two more polls are pure hits.
	if _, err := client.DeviceProperties(); err != nil {
		t.Fatal(err)
	}
	if err := client.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeviceProperties(); err != nil {
		t.Fatal(err)
	}
	cs := client.Stats()
	if cs.CacheMisses != 2 || cs.CacheHits != 2 {
		t.Fatalf("cache stats %+v, want 2 misses and 2 hits", cs)
	}
}

// fillLocalAnswers makes every local answer available — device count,
// properties and the synchronized event — checks that each is served
// without an exchange, and returns the event.
func fillLocalAnswers(t *testing.T, client *Client) cudart.Event {
	t.Helper()
	if _, err := client.DeviceCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeviceProperties(); err != nil {
		t.Fatal(err)
	}
	event := syncEvent(t, client)
	before := client.conn.Stats().MessagesSent
	for _, q := range eachLocalQuery(client, event) {
		if q.err != nil {
			t.Fatalf("%s: %v", q.call, q.err)
		}
	}
	if sent := client.conn.Stats().MessagesSent - before; sent != 0 {
		t.Fatalf("the three local answers sent %d messages", sent)
	}
	if cs := client.Stats(); cs.CacheHits != 3 {
		t.Fatalf("client stats %+v, want 3 cache hits", cs)
	}
	return event
}

// localQuery is the outcome of one call the client can answer itself.
type localQuery struct {
	call string
	err  error
}

// eachLocalQuery makes each of the three locally answerable calls.
func eachLocalQuery(client *Client, event cudart.Event) []localQuery {
	_, countErr := client.DeviceCount()
	_, propsErr := client.DeviceProperties()
	return []localQuery{
		{"device count", countErr},
		{"device properties", propsErr},
		{"event query", client.EventQuery(event)},
	}
}

// TestCachedQueriesFailAfterClose holds the local answers to the Client
// contract: after Close every call fails with cudart.ErrorInitialization,
// and once the session is lost with ErrSessionLost — the device count,
// the properties and a query of a synchronized event included.
func TestCachedQueriesFailAfterClose(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		client, _, _, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(0, 0))
		defer cleanup()
		event := fillLocalAnswers(t, client)
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		for _, q := range eachLocalQuery(client, event) {
			if !errors.Is(q.err, cudart.ErrorInitialization) {
				t.Fatalf("%s after Close: %v, want cudaErrorInitializationError", q.call, q.err)
			}
		}
	})
	t.Run("lost", func(t *testing.T) {
		_, addr1, cleanup1 := startTCPServer(t)
		defer cleanup1()
		_, addr2, cleanup2 := startTCPServer(t)
		defer cleanup2()
		// Ops 4-9: count, properties, event create; 10/11: the frame the
		// synchronization closes; op 12: the next send — reset there. The
		// reconnect lands on a server that never saw the session.
		plan := faults.Script(
			faults.Injection{Op: opsOpenDurable + 8, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
		)
		conn, err := transport.DialTCP(addr1)
		if err != nil {
			t.Fatal(err)
		}
		client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM),
			WithBatching(0, 0), WithRetry(3, 50*time.Microsecond), WithReconnect(faultyDialer(addr2, nil)))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		event := fillLocalAnswers(t, client)
		if err := client.DeviceSynchronize(); !errors.Is(err, ErrSessionLost) {
			t.Fatalf("sync through refused reattach: %v, want ErrSessionLost", err)
		}
		if plan.Injected() == 0 {
			t.Fatal("scripted fault never fired; op indices drifted")
		}
		for _, q := range eachLocalQuery(client, event) {
			if !errors.Is(q.err, ErrSessionLost) {
				t.Fatalf("%s after the session was lost: %v, want ErrSessionLost", q.call, q.err)
			}
		}
	})
}

// TestCacheInvalidatedAcrossReconnect checks the coherence rule: a cache
// filled over one connection must not survive onto its replacement, even
// when the reattach lands on the same daemon.
func TestCacheInvalidatedAcrossReconnect(t *testing.T) {
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()

	// Op 4/5 fills the properties cache; op 6: sync send; op 7: sync recv —
	// inject the reset there to force a reattach.
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable + 3, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	dial := faultyDialer(addr, plan)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM),
		WithBatching(0, 0), WithRetry(4, 100*time.Microsecond), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.DeviceProperties(); err != nil {
		t.Fatal(err)
	}
	if err := client.DeviceSynchronize(); err != nil {
		t.Fatalf("sync through injected reset: %v", err)
	}
	if plan.Injected() == 0 {
		t.Fatal("scripted fault never fired; op indices drifted")
	}
	if _, err := client.DeviceProperties(); err != nil {
		t.Fatal(err)
	}
	cs := client.Stats()
	if cs.Reconnects != 1 {
		t.Fatalf("client stats %+v, want one reconnect", cs)
	}
	if cs.CacheMisses != 2 || cs.CacheHits != 0 {
		t.Fatalf("cache stats %+v: the reconnect must have invalidated the cache", cs)
	}
}

// queryReaches polls event and checks that it answers success, that srv
// served wantReqs requests for it and that a local answer, and only one,
// counted as a cache hit.
func queryReaches(t *testing.T, client *Client, srv *Server, event cudart.Event, wantReqs int64) {
	t.Helper()
	reqs, hits := srv.Stats().Requests, client.Stats().CacheHits
	if err := client.EventQuery(event); err != nil {
		t.Fatalf("query of a synchronized event: %v", err)
	}
	if got := srv.Stats().Requests - reqs; got != wantReqs {
		t.Fatalf("query reached the server %d times, want %d", got, wantReqs)
	}
	if got := client.Stats().CacheHits - hits; got != 1-wantReqs {
		t.Fatalf("query moved the cache hits by %d, want %d", got, 1-wantReqs)
	}
}

// syncEvent creates, records and synchronizes an event.
func syncEvent(t *testing.T, client *Client) cudart.Event {
	t.Helper()
	event, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.EventRecord(event, 0); err != nil {
		t.Fatal(err)
	}
	if err := client.EventSynchronize(event); err != nil {
		t.Fatal(err)
	}
	return event
}

// TestChaosEventQueryAfterReconnect holds the synchronized-event answer to
// the coherence rule: it lasts only as long as the connection it was learned
// on. A reset between the synchronization and the query, healed by a
// reattach, sends the query back to the wire; so does a live migration,
// once the first call after it has reattached at the destination.
func TestChaosEventQueryAfterReconnect(t *testing.T) {
	t.Run("reset", func(t *testing.T) {
		srv, addr, cleanup := startTCPServer(t)
		defer cleanup()
		// Ops 4/5: event create; 6/7: the frame the synchronization closes;
		// 8/9: a device synchronization — reset at its recv.
		plan := faults.Script(
			faults.Injection{Op: opsOpenDurable + 5, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}},
		)
		dial := faultyDialer(addr, plan)
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		client, err := Open(conn, moduleImage(t, calib.MM),
			WithBatching(0, 0), WithRetry(4, 100*time.Microsecond), WithReconnect(dial))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		event := syncEvent(t, client)
		queryReaches(t, client, srv, event, 0)
		if err := client.DeviceSynchronize(); err != nil {
			t.Fatalf("sync through injected reset: %v", err)
		}
		if plan.Injected() == 0 {
			t.Fatal("scripted fault never fired; op indices drifted")
		}
		if cs := client.Stats(); cs.Reconnects != 1 {
			t.Fatalf("client stats %+v, want one reconnect", cs)
		}
		queryReaches(t, client, srv, event, 1)
		queryReaches(t, client, srv, event, 1) // not yet synchronized on this connection
		if err := client.EventSynchronize(event); err != nil {
			t.Fatal(err)
		}
		queryReaches(t, client, srv, event, 0)
	})
	t.Run("migration", func(t *testing.T) {
		src, srcAddr, cleanupSrc := startMigrateServer(t)
		defer cleanupSrc()
		dst, dstAddr, cleanupDst := startMigrateServer(t)
		defer cleanupDst()
		sw := newSwitcher(srcAddr)
		client := openSwitchClient(t, sw, moduleImage(t, calib.MM), WithBatching(0, 0))
		defer client.Close()

		event := syncEvent(t, client)
		queryReaches(t, client, src, event, 0)
		if _, err := src.MigrateSession(client.SessionID(), dialTo(dstAddr)); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		sw.point(dstAddr)
		if err := client.DeviceSynchronize(); err != nil {
			t.Fatalf("reattach at destination: %v", err)
		}
		queryReaches(t, client, dst, event, 1)
		if err := client.EventSynchronize(event); err != nil {
			t.Fatal(err)
		}
		queryReaches(t, client, dst, event, 0)
	})
}
