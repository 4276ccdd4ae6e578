package rcuda

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// The session lifecycle suite: the bytes a parked session checkpoints to,
// and what each event of the lifecycle receives in each state a session id
// can be in (DESIGN.md §5 "Session states").

// parkDurable opens a durable session on d, runs program on it, drops its
// connection and waits until the daemon has parked it. It returns the id.
func parkDurable(t *testing.T, d *SimDaemon, program func(c *Client), opts ...ClientOption) uint64 {
	t.Helper()
	parked := d.srv.Stats().SessionsParked
	client, err := d.Open(moduleImage(t, calib.MM), append([]ClientOption{WithReconnect(d.Dial)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if program != nil {
		program(client)
	}
	_ = client.conn.Close()
	waitFor(t, "session park", 3*time.Second, func() bool { return d.srv.Stats().SessionsParked > parked })
	return client.SessionID()
}

// TestSessionCheckpointBytesPinned pins the checkpoint of a fixed program's
// parked session — two devices, allocations with contents, a stream with
// work and a recorded event, a batched frame in the dedup window — to its
// encoded length and digest, so a change to how a session's state is
// gathered or serialized cannot hide behind a round trip.
func TestSessionCheckpointBytesPinned(t *testing.T) {
	const wantLen, wantDigest = 4653, uint64(0x6e0d213b4b9f4824)
	d, _ := multiGPUDaemon(2)
	defer d.srv.Close()
	must := func(err error) {
		if err != nil {
			t.Helper()
			t.Fatal(err)
		}
	}
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	id := parkDurable(t, d, func(c *Client) {
		a, err := c.Malloc(300)
		must(err)
		must(c.MemcpyToDevice(a, fill(300, 1)))
		s, err := c.StreamCreate()
		must(err)
		e, err := c.EventCreate()
		must(err)
		must(c.MemcpyToDeviceAsync(a, fill(128, 9), s))
		must(c.EventRecord(e, s))
		must(c.Memset(a+256, 0x5a, 44))
		must(c.StreamSynchronize(s))
		must(c.SetDevice(1))
		b, err := c.Malloc(4096)
		must(err)
		must(c.MemcpyToDevice(b, fill(4096, 3)))
		_, err = c.Malloc(17)
		must(err)
	}, WithBatching(0, 0))

	d.srv.mu.Lock()
	sess := d.srv.registry[id]
	d.srv.mu.Unlock()
	ckpt, err := d.srv.buildCheckpoint(sess)
	must(err)
	if len(ckpt.Devices) != 2 || ckpt.LastBatchCodes == nil || len(ckpt.Devices[0].Timeline.Events) != 1 {
		t.Fatalf("checkpoint misses part of the program: %+v", ckpt)
	}
	payload := ckpt.Encode(nil)
	if got, digest := len(payload), protocol.MigrateDigest(payload); got != wantLen || digest != wantDigest {
		t.Fatalf("checkpoint is %d bytes, digest %#x; pinned %d bytes, digest %#x", got, digest, wantLen, wantDigest)
	}
}

// errClaimed is what a claim's dial answers once the claim was granted.
var errClaimed = errors.New("claim granted")

// holdClaim claims session id for a standby copy whose dial blocks until
// the returned release is called; it returns once the claim is held.
func holdClaim(t *testing.T, srv *Server, id uint64) (release func()) {
	t.Helper()
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := srv.CheckpointTo(id, func() (transport.Conn, error) {
			close(held)
			<-free
			return nil, errClaimed
		})
		done <- err
	}()
	select {
	case <-held:
	case err := <-done:
		t.Fatalf("claim of session %d refused: %v", id, err)
	}
	return func() {
		close(free)
		if err := <-done; !errors.Is(err, errClaimed) {
			t.Errorf("held claim ended with %v", err)
		}
	}
}

// TestSessionTransitions is the table of the session lifecycle: each state
// a session id can be in on one daemon, crossed with each event that reads
// or changes it, and the reply code or error the event receives. A GC tick
// here runs the parked-session collector once with every parked session
// past its TTL.
func TestSessionTransitions(t *testing.T) {
	const (
		ok       = "ok"
		busy     = "busy"
		evicted  = "evicted"
		migrated = "migrated"
		unknown  = "unknown"
		claimed  = "claimed"
		kept     = "kept"
	)
	refusal := func(code uint32) string {
		switch code {
		case 0:
			return ok
		case protocol.CodeServerBusy:
			return busy
		case protocol.CodeSessionEvicted:
			return evicted
		case protocol.CodeSessionMigrated:
			return migrated
		case uint32(cudart.ErrorInitialization):
			return unknown
		}
		return fmt.Sprintf("code %d", code)
	}
	// Each event runs against one daemon d and id and names its outcome.
	events := []struct {
		name string
		run  func(t *testing.T, d *SimDaemon, id uint64) string
	}{
		{"reattach", func(t *testing.T, d *SimDaemon, id uint64) string {
			conn, _ := d.Dial()
			defer conn.Close()
			if err := conn.Send(&protocol.ReattachRequest{Session: id}); err != nil {
				t.Fatal(err)
			}
			raw, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := protocol.DecodeReattachResponse(raw)
			if err != nil {
				t.Fatal(err)
			}
			return refusal(resp.Err)
		}},
		{"claim", func(t *testing.T, d *SimDaemon, id uint64) string {
			_, err := d.srv.CheckpointTo(id, func() (transport.Conn, error) { return nil, errClaimed })
			switch {
			case errors.Is(err, errClaimed):
				return claimed
			case errors.Is(err, ErrServerBusy):
				return busy
			case errors.Is(err, ErrSessionMigrated):
				return migrated
			case errors.Is(err, ErrSessionEvicted):
				return evicted
			}
			return unknown
		}},
		{"restore", func(t *testing.T, d *SimDaemon, id uint64) string {
			conn, _ := d.Dial()
			defer conn.Close()
			if err := conn.Send(&protocol.SessionRestoreRequest{Session: id}); err != nil {
				t.Fatal(err)
			}
			raw, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			code, err := protocol.DecodeCodeResponse(raw)
			if err != nil {
				t.Fatal(err)
			}
			return refusal(code)
		}},
		{"gc", func(t *testing.T, d *SimDaemon, id uint64) string {
			before := d.srv.Stats().Evictions
			d.srv.evictExpired()
			if d.srv.Stats().Evictions > before {
				return evicted
			}
			return kept
		}},
	}
	// Each state builds a daemon holding id in that state. A daemon closes
	// after the claims its test held are released: cleanups run last in,
	// first out.
	daemon := func(t *testing.T) *SimDaemon {
		d, _ := multiGPUDaemon(1)
		t.Cleanup(func() { d.srv.Close() })
		return d
	}
	standbyCopy := func(t *testing.T) (*SimDaemon, uint64) {
		src, dst := daemon(t), daemon(t)
		id := parkDurable(t, src, nil)
		if _, err := src.srv.CheckpointTo(id, dst.Dial); err != nil {
			t.Fatal(err)
		}
		return dst, id
	}
	states := []struct {
		name  string
		build func(t *testing.T) (*SimDaemon, uint64)
		want  [4]string // reattach, claim, restore, gc
	}{
		{"attached", func(t *testing.T) (*SimDaemon, uint64) {
			d := daemon(t)
			client, err := d.Open(moduleImage(t, calib.MM), WithReconnect(d.Dial))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			return d, client.SessionID()
		}, [4]string{busy, busy, busy, kept}},
		{"parked", func(t *testing.T) (*SimDaemon, uint64) {
			d := daemon(t)
			return d, parkDurable(t, d, nil)
		}, [4]string{ok, claimed, busy, evicted}},
		{"standby copy", standbyCopy, [4]string{ok, claimed, ok, evicted}},
		{"claimed", func(t *testing.T) (*SimDaemon, uint64) {
			d, id := standbyCopy(t)
			t.Cleanup(holdClaim(t, d.srv, id))
			return d, id
		}, [4]string{busy, busy, busy, kept}},
		{"evicted", func(t *testing.T) (*SimDaemon, uint64) {
			d := daemon(t)
			id := parkDurable(t, d, nil)
			d.srv.evictExpired()
			return d, id
		}, [4]string{evicted, unknown, ok, kept}},
		{"migrated", func(t *testing.T) (*SimDaemon, uint64) {
			d, peer := daemon(t), daemon(t)
			id := parkDurable(t, d, nil)
			if _, err := d.srv.MigrateSession(id, peer.Dial); err != nil {
				t.Fatal(err)
			}
			return d, id
		}, [4]string{migrated, migrated, ok, kept}},
		{"unknown", func(t *testing.T) (*SimDaemon, uint64) {
			return daemon(t), 77
		}, [4]string{unknown, unknown, ok, kept}},
	}
	for _, st := range states {
		for i, ev := range events {
			t.Run(st.name+"/"+ev.name, func(t *testing.T) {
				d, id := st.build(t)
				if got := ev.run(t, d, id); got != st.want[i] {
					t.Errorf("%s of a session %s: %s, want %s", ev.name, st.name, got, st.want[i])
				}
			})
		}
	}
}

// TestParkedSessionTTLSkipsClaimedSession: the parked-session collector
// leaves a session alone while a migration or standby copy holds its claim,
// however long past its TTL, and evicts it once the claim is released.
func TestParkedSessionTTLSkipsClaimedSession(t *testing.T) {
	d, _ := multiGPUDaemon(1, WithParkedSessionTTL(20*time.Millisecond))
	defer d.srv.Close()
	id := parkDurable(t, d, nil)
	release := holdClaim(t, d.srv, id)
	time.Sleep(200 * time.Millisecond)
	evictions := d.srv.Stats().Evictions
	release()
	if evictions != 0 {
		t.Fatalf("the collector evicted a claimed session (%d evictions while the claim was held)", evictions)
	}
	waitFor(t, "eviction after the claim", 3*time.Second, func() bool { return d.srv.Stats().Evictions == 1 })
}
