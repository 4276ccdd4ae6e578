package rcuda

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
	"rcuda/internal/transport"
)

// Tests of session set-up: the init payload that aliases its frame, what a
// hostile module image is answered with, and what an open and close cost.

// initFrame is an initialization frame with the given length field, so a
// case can declare a length the encoder would never produce.
func initFrame(declared int, img []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(declared)), img...)
}

// initCase is one opening frame, sent on a connection of its own.
type initCase struct {
	name  string
	frame []byte
}

// hostileInits are opening frames around the MM module's image.
func hostileInits(img []byte) []initCase {
	const nameAt = 8 + 4 // magic, name length
	flip := func(at int) []byte {
		out := append([]byte(nil), img...)
		out[at] ^= 1
		return out
	}
	whole := func(b []byte) []byte { return initFrame(len(b), b) }
	return []initCase{
		{"exact size", whole(img)},
		{"unknown magic", whole(flip(0))},
		{"short name field", whole(img[:nameAt-2])},
		{"name length past the image", whole(flip(nameAt - 1))},
		{"unknown name", whole(flip(nameAt))},
		{"one byte short", whole(img[:len(img)-1])},
		{"one byte long", whole(append(append([]byte(nil), img...), 0))},
		{"header only", whole(img[:nameAt+int(binary.LittleEndian.Uint32(img[8:]))])},
		{"empty image", whole(nil)},
		{"length field one short of the frame", initFrame(len(img)-1, img)},
		{"length field one past the frame", initFrame(len(img)+1, img)},
	}
}

// hostileInitReplies is every frame the server sent back for each case, in
// hex, ending with "closed" when it ended the connection — generated by
// running this test against the commit before the init payload aliased its
// frame and ResolveModule compared against BinarySize.
var hostileInitReplies = map[string][]string{
	"exact size":                          {"010000000300000000000000"},
	"unknown magic":                       {"010000000300000003000000", "closed"},
	"short name field":                    {"010000000300000003000000", "closed"},
	"name length past the image":          {"010000000300000003000000", "closed"},
	"unknown name":                        {"010000000300000003000000", "closed"},
	"one byte short":                      {"010000000300000003000000", "closed"},
	"one byte long":                       {"010000000300000003000000", "closed"},
	"header only":                         {"010000000300000003000000", "closed"},
	"empty image":                         {"010000000300000003000000", "closed"},
	"length field one short of the frame": {"closed"},
	"length field one past the frame":     {"closed"},
}

func TestHostileInitImagesAnswerAsBefore(t *testing.T) {
	srv, addr, cleanup := startTCPServer(t)
	defer cleanup()
	for _, hc := range hostileInits(moduleImage(t, calib.MM)) {
		conn, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(rawMessage(hc.frame)); err != nil {
			t.Fatal(err)
		}
		// A refusal is followed by the end of the connection; so is a frame
		// the server could not read as an init at all.
		var replies []string
		payload, err := conn.Recv()
		if err == nil {
			replies = append(replies, hex.EncodeToString(payload))
			if resp, derr := protocol.DecodeInitResponse(payload); derr != nil || resp.Err != 0 {
				_, err = conn.Recv()
			}
		}
		if err != nil {
			replies = append(replies, "closed")
		}
		_ = conn.Close()
		if want := hostileInitReplies[hc.name]; !reflect.DeepEqual(replies, want) {
			t.Errorf("%q: replies %q, want %q", hc.name, replies, want)
		}
	}
	waitFor(t, "sessions to end", 5*time.Second, func() bool { return srv.Stats().SessionsActive == 0 })
}

// TestAliasedInitPayloadMayBeOverwritten: the server keeps nothing of the
// init frame. Both daemons destroy every received frame at the next receive
// (the init image dies when the session hello arrives), and the session
// still runs its workload, still checkpoints and migrates — the checkpoint
// names the module, it does not carry the image — and finishes bit-exact on
// the destination.
func TestAliasedInitPayloadMayBeOverwritten(t *testing.T) { migrateOverScribbledFrames(t) }

// migrateOverScribbledFrames is TestAliasedInitPayloadMayBeOverwritten on
// daemons with the given options added.
func migrateOverScribbledFrames(t *testing.T, srvOpts ...ServerOption) {
	module := moduleImage(t, calib.MM)
	w := mmStaged(16)
	want := goldenStaged(t, module, w)

	src, srcAddr, stopSrc := startScribbleServer(t, srvOpts...)
	defer stopSrc()
	dst, dstAddr, stopDst := startScribbleServer(t, srvOpts...)
	defer stopDst()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module)
	defer client.Close()

	ptrs := w.stage1(t, client)
	if _, err := src.MigrateSession(client.SessionID(), dialTo(dstAddr)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	sw.point(dstAddr)
	if got := w.stage2(t, client, ptrs); !bytes.Equal(got, want) {
		t.Fatal("result diverged on a session whose init frame was overwritten")
	}
	if ss, ds := src.Stats(), dst.Stats(); ss.Migrations != 1 || ds.RestoreFromCheckpoint != 1 || ds.Reattaches != 1 {
		t.Fatalf("source %+v\ndestination %+v", ss, ds)
	}
}

// TestOpenCloseBytesGate: opening and closing a session, both ends in this
// process, allocates under 16 KiB — it was 190 KB when each end made its
// own 64 KiB reader, the server copied the module image out of its frame
// and synthesized a second one to measure it, and Open seeded a generator.
func TestOpenCloseBytesGate(t *testing.T) {
	skipUnderRace(t)
	lb := startLoopback(t, nil)
	defer lb.stop()
	module := moduleImage(t, calib.MM)
	const rounds = 50
	for i := 0; i < 4; i++ {
		lb.openClose(t, module) // both ends' readers and the frame buffers are in their pools
	}
	// The server closes its end after the client's Close has returned; wait
	// for it so every round's readers are back before the next dial.
	settled := func() bool { return lb.srv.Stats().SessionsActive == 0 }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		lb.openClose(t, module)
		waitFor(t, "the session to end", 5*time.Second, settled)
	}
	runtime.ReadMemStats(&after)
	perOpen := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("open+close: %d bytes", perOpen)
	if perOpen >= 16<<10 {
		t.Errorf("open+close allocates %d bytes, want under %d", perOpen, 16<<10)
	}
}

// idleSocketSessionBytes and restingSocketBytes are the heap
// TestIdleSocketFootprint reads per idle session and per resting kept
// connection, both ends (3 251–3 257 B and 1 987–1 993 B over seven runs),
// and parkedSessionBytes per parked durable session, both ends (2 055–2 061 B
// over seven runs); the test fails 30 % above any of them. When each end of
// a connection kept a 64 KiB socket reader for life the first two read
// 134 386 B and 133 122 B.
const (
	idleSocketSessionBytes = 3257
	restingSocketBytes     = 1993
	parkedSessionBytes     = 2061
)

// TestIdleSocketFootprint is TestIdleSessionFootprint over loopback TCP:
// 1 000 sessions opened on a server in this process and left idle, then
// released so that their connections rest, kept for the next session. It
// reports the heap both ends retain per connection after a collection, and
// fails when a change makes either figure grow more than 30 %: what a
// daemon spends on a client that is connected but quiet bounds how many
// tenants it can take. Then 1 000 connections that only carried stats
// probes, as a broker's pool probes on the connection it keeps, must each
// rest on the daemon; and 1 000 durable sessions whose connections drop
// are parked, with the heap both ends retain per session held to its
// figure in the same way.
func TestIdleSocketFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what a connection allocates")
	}
	const n = 1000
	lb := startLoopback(t, nil)
	defer lb.stop()
	module := moduleImage(t, calib.MM)
	// Two collections each time: the first moves the frame-buffer pool's
	// contents to its victim cache, the second drops them.
	var stacks [3]float64
	heap := func(stack *float64) float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		if stack != nil {
			*stack = float64(m.StackInuse)
		}
		return float64(m.HeapAlloc)
	}
	before := heap(&stacks[0])
	// Phases are measured from their own start: the harness keeps every
	// server end it accepted, closed or not, so it forgets them between
	// phases, and a phase begins once the daemon serves nothing.
	settle := func() {
		waitFor(t, "the daemon to let every connection go", 10*time.Second, func() bool {
			lb.srv.mu.Lock()
			defer lb.srv.mu.Unlock()
			return len(lb.srv.conns) == 0
		})
		lb.mu.Lock()
		lb.srvConn = nil
		lb.mu.Unlock()
	}
	clients := make([]*Client, 0, n)
	for i := 0; i < n; i++ {
		conn, err := transport.DialTCP(lb.addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(conn, module)
		if err != nil {
			t.Fatal(err)
		}
		// A round trip: the server has read the hello and waits for the
		// next request.
		if err := c.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	idle := (heap(&stacks[1]) - before) / n
	conns := make([]transport.Conn, 0, n)
	for _, c := range clients {
		conn, err := c.Release()
		if err != nil || conn == nil {
			t.Fatalf("release: %v, connection %v", err, conn)
		}
		conns = append(conns, conn)
	}
	clients = nil
	waitFor(t, "every connection to rest", 10*time.Second, func() bool { return lb.srv.Stats().SessionsActive == 0 })
	resting := (heap(&stacks[2]) - before) / n
	for _, conn := range conns {
		_ = conn.Close()
	}
	settle()

	// Probes only: each connection opens with a stats query and carries
	// another, and rests after each reply.
	conns = conns[:0]
	for i := 0; i < n; i++ {
		conn, err := transport.DialTCP(lb.addr)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := conn.Send(&protocol.StatsQueryRequest{}); err != nil {
				t.Fatal(err)
			}
			if _, err := protocol.DecodeStatsReply(recvOn(t, conn)); err != nil {
				t.Fatal(err)
			}
		}
		conns = append(conns, conn)
	}
	waitFor(t, "every probed connection to rest", 10*time.Second, func() bool { return lb.srv.Stats().SessionsActive == 0 })
	lb.srv.mu.Lock()
	probed, rested := len(lb.srv.conns), 0
	for _, idle := range lb.srv.conns {
		if idle {
			rested++
		}
	}
	lb.srv.mu.Unlock()
	if probed != n || rested != n {
		t.Errorf("%d connections that only probed: the daemon holds %d, %d of them resting; want %d resting", n, probed, rested, n)
	}
	for _, conn := range conns {
		_ = conn.Close()
	}
	settle()

	// Parked: durable sessions whose connections drop. The clients are
	// kept, as an application that means to reattach keeps its own.
	base := heap(nil)
	for i := 0; i < n; i++ {
		conn, err := transport.DialTCP(lb.addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(conn, module, WithSchedClass(SchedBatch, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		clients = append(clients, c)
	}
	waitFor(t, "every session to park", 10*time.Second, func() bool { return lb.srv.Stats().SessionsParked == n })
	settle()
	parked := (heap(nil) - base) / n
	runtime.KeepAlive(clients)

	t.Logf("per connection, both ends: an idle session retains %.0f B of heap (committed: %d B) and %.0f B of stacks, a resting connection %.0f B (committed: %d B) and %.0f B, a parked session %.0f B (committed: %d B)",
		idle, idleSocketSessionBytes, (stacks[1]-stacks[0])/n, resting, restingSocketBytes, (stacks[2]-stacks[0])/n,
		parked, parkedSessionBytes)
	if limit := 1.3 * idleSocketSessionBytes; idle > limit {
		t.Errorf("an idle session over TCP retains %.0f B, want at most %.0f B (%d B + 30 %%)", idle, limit, idleSocketSessionBytes)
	}
	if limit := 1.3 * restingSocketBytes; resting > limit {
		t.Errorf("a resting connection retains %.0f B, want at most %.0f B (%d B + 30 %%)", resting, limit, restingSocketBytes)
	}
	if limit := 1.3 * parkedSessionBytes; parked > limit {
		t.Errorf("a parked durable session retains %.0f B, want at most %.0f B (%d B + 30 %%)", parked, limit, parkedSessionBytes)
	}
}
