package rcuda

import (
	"errors"
	"fmt"
	"io"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
	"rcuda/internal/stats"
	"rcuda/internal/transport"
)

// ServerCounts declares the daemon's cumulative counters once: ServerStats
// is its snapshot and Server adds to a ServerCounts[atomic.Int64].
type ServerCounts[T any] struct {
	// SessionsStarted counts handshakes: the opening frames connections
	// carried — one per session of a kept connection, one per stats probe
	// or restore connection — including ones that failed or were refused.
	SessionsStarted T
	// SessionsActive counts connections currently being served: sessions,
	// handshakes waiting for admission and stats probe connections alike.
	// A connection a client kept, waiting between sessions, is not one.
	SessionsActive T
	// Requests counts post-handshake requests across all sessions.
	Requests T
	// BytesReceived and BytesSent count Table I payload bytes across all
	// sessions, including the handshake, added as each session ends.
	BytesReceived T
	BytesSent     T
	// Reattaches counts connections that resumed a parked durable session.
	Reattaches T
	// SessionsParked counts durable sessions whose connection died and
	// whose state was kept for a reattach (cumulative, not a gauge).
	SessionsParked T
	// RejectedConns counts connections refused by the concurrency cap
	// (WithMaxConns).
	RejectedConns T
	// RejectedSessions counts handshakes refused by the session cap or
	// whose admission-queue wait expired (WithMaxSessions).
	RejectedSessions T
	// QuotaDenials counts cudaMalloc requests refused by a per-session
	// quota (WithSessionMemoryLimit, WithMaxAllocsPerSession).
	QuotaDenials T
	// WatchdogKills counts connections killed because a transport
	// operation overran the request deadline (WithRequestDeadline). A kept
	// connection the watchdog closes between sessions, with no session to
	// lose, is not one.
	WatchdogKills T
	// Evictions counts parked durable sessions destroyed by the TTL
	// garbage collector (WithParkedSessionTTL).
	Evictions T
	// ForcedCloses counts connections force-closed because a drain or
	// Close deadline expired before they finished. A drain closes a
	// connection waiting between sessions at once and does not count it.
	ForcedCloses T
	// StatsQueries counts StatsQuery requests answered, both broker health
	// probes and in-session queries.
	StatsQueries T
	// BatchFrames counts OpBatch frames executed (replays excluded) and
	// BatchedOps the sub-operations they carried, a frame's closing
	// synchronization or query included — the round trips the batching
	// layer saved are BatchedOps − BatchFrames.
	BatchFrames T
	BatchedOps  T
	// BatchReplays counts batches answered from the per-session dedup state
	// without re-execution (a client retried after losing the response).
	BatchReplays T
	// Migrations counts sessions live-migrated away to another daemon, and
	// MigrationBytes the checkpoint bytes streamed out (moves and standby
	// copies both).
	Migrations     T
	MigrationBytes T
	// MigrationFailures counts outbound migrations that failed and standby
	// copies that failed after their claim was granted; the session stays
	// intact and reattachable here.
	MigrationFailures T
	// RestoreFromCheckpoint counts sessions this daemon materialized from
	// an inbound checkpoint stream (a migration's destination half, or a
	// peer's standby copy).
	RestoreFromCheckpoint T
}

// ServerStats are cumulative daemon counters, suitable for an operator
// dashboard or load-balancing decisions across GPU servers.
type ServerStats = ServerCounts[int64]

// Stats returns a snapshot of the daemon's counters.
func (s *Server) Stats() ServerStats { return stats.Load[ServerStats](&s.counters) }

// DeviceUsage reports one device's live allocator state and scheduling
// gauges.
type DeviceUsage struct {
	Name        string
	BytesInUse  uint64
	Allocations int
	// Sessions counts sessions currently holding a context on the device.
	Sessions int
	// Busy is the cumulative time the daemon spent executing requests on
	// the device, measured on the device's own clock.
	Busy time.Duration
}

// StatsSnapshot is a point-in-time operational view of the daemon: the
// cumulative counters plus live gauges an operator needs to judge whether
// the hardening limits are doing their job.
type StatsSnapshot struct {
	ServerStats
	// SessionsLive counts sessions currently attached to a connection.
	SessionsLive int64
	// SessionsParkedNow counts durable sessions currently parked awaiting
	// a reattach (a gauge, unlike the cumulative SessionsParked).
	SessionsParkedNow int
	// Devices reports each device's allocator occupancy.
	Devices []DeviceUsage
	// Classes reports per-scheduling-class queue accounting, merged across
	// the daemon's devices. Nil when the scheduler is off (see sched.go).
	Classes []ClassUsage
}

// StatsSnapshot captures the daemon's current operational state.
func (s *Server) StatsSnapshot() StatsSnapshot {
	snap := StatsSnapshot{
		ServerStats:       s.Stats(),
		SessionsLive:      clampGauge(s.attached.Load()),
		SessionsParkedNow: s.parkedNow(),
	}
	for i, dev := range s.devs {
		snap.Devices = append(snap.Devices, DeviceUsage{
			Name:        dev.Properties().Name,
			BytesInUse:  dev.MemoryInUse(),
			Allocations: dev.Allocations(),
			Sessions:    int(clampGauge(s.devSessions[i].Load())),
			Busy:        time.Duration(clampGauge(s.devBusy[i].Load())),
		})
	}
	snap.Classes = s.classUsage()
	return snap
}

// parkedNow counts durable sessions currently parked awaiting a reattach.
func (s *Server) parkedNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sess := range s.registry {
		if !sess.attached {
			n++
		}
	}
	return n
}

// clampGauge floors a gauge at zero. The accounting pairs every decrement
// with a prior increment, so a negative value would be a bug; clamping
// keeps a momentarily torn read during shutdown from ever reaching an
// operator or the wire as a giant unsigned number.
func clampGauge(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// statsReply builds the trimmed wire form of the daemon's snapshot for
// StatsQuery: the live gauges a broker's placement policy ranks servers
// by, without the cumulative counter block.
func (s *Server) statsReply() *protocol.StatsReply {
	snap := s.StatsSnapshot()
	r := &protocol.StatsReply{
		SessionsLive:   uint32(snap.SessionsLive),
		SessionsParked: uint32(snap.SessionsParkedNow),
	}
	for _, du := range snap.Devices {
		r.Devices = append(r.Devices, protocol.DeviceStats{
			BytesInUse:  du.BytesInUse,
			Allocations: uint32(du.Allocations),
			Sessions:    uint32(du.Sessions),
			BusyNanos:   uint64(du.Busy),
		})
	}
	// A scheduler class is its wire row (protocol.ClassRow).
	r.HasClasses = snap.Classes != nil
	for _, cu := range snap.Classes {
		r.Classes[cu.Class] = protocol.ClassLoad{
			Sessions:     uint32(cu.Sessions),
			P99WaitNanos: uint64(cu.WaitP99),
		}
	}
	return r
}

// serveStatsConn serves a probe-only connection: one whose opening message
// was a StatsQuery instead of an init or reattach payload. The connection
// carries nothing but further stats queries — a broker keeps one open per
// endpoint and polls it — and never touches session admission, so probing
// works even on a server that is refusing new sessions. A clean close by
// the prober ends the loop without error.
func (s *Server) serveStatsConn(conn transport.Conn) error {
	for {
		s.counters.StatsQueries.Add(1)
		if err := conn.Send(s.statsReply()); err != nil {
			return fmt.Errorf("rcuda: stats send: %w", err)
		}
		payload, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("rcuda: stats recv: %w", err)
		}
		if _, ok := protocol.TryDecodeStatsQuery(payload); !ok {
			return fmt.Errorf("rcuda: non-stats request on a stats connection")
		}
	}
}

// QueryStats asks the server this client's connection leads to for its
// live load snapshot — an in-session counterpart of the broker's probe.
// Like every Runtime call it is a synchronous exchange on the session's
// connection; under WithRetry it is retried as an idempotent read.
func (c *Client) QueryStats() (*protocol.StatsReply, error) {
	payload, err := c.roundTrip(&protocol.StatsQueryRequest{})
	if err != nil {
		return nil, err
	}
	resp, err := protocol.DecodeStatsReply(payload)
	if err != nil {
		return nil, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return nil, err
	}
	return resp, nil
}

// ClientCounts declares the per-client resilience counters once:
// ClientStats is its snapshot and Client adds to a
// ClientCounts[atomic.Int64], so observers can poll a client that is
// mid-operation on another goroutine.
type ClientCounts[T any] struct {
	// ConnFaults counts operations interrupted by a connection-level
	// failure (reset, truncation, stall, EOF).
	ConnFaults T
	// Retries counts re-executions of idempotent operations after a fault.
	Retries T
	// Reconnects counts successful redial-and-reattach cycles.
	Reconnects T
	// Recovered counts operations that ultimately succeeded on a retry.
	Recovered T
	// BatchesFlushed counts OpBatch frames sent and OpsCoalesced the calls
	// that rode in them instead of paying their own round trip
	// (WithBatching), a synchronization or query that closed a frame
	// included.
	BatchesFlushed T
	OpsCoalesced   T
	// CacheHits and CacheMisses count immutable-reply lookups served from
	// and filled into the client cache (device count and properties).
	CacheHits   T
	CacheMisses T
	// Migrations counts reattaches redirected with CodeSessionMigrated and
	// followed to the session's new home — each is a recovery that replayed
	// nothing.
	Migrations T
}

// ClientStats are cumulative per-client resilience counters.
type ClientStats = ClientCounts[int64]

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() ClientStats { return stats.Load[ClientStats](&c.cstats) }
