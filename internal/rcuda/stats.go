package rcuda

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// ServerStats are cumulative daemon counters, suitable for an operator
// dashboard or load-balancing decisions across GPU servers.
type ServerStats struct {
	// SessionsStarted counts accepted client sessions, including ones
	// that failed the handshake.
	SessionsStarted int64
	// SessionsActive counts sessions currently being served.
	SessionsActive int64
	// Requests counts post-handshake requests across all sessions.
	Requests int64
	// BytesReceived and BytesSent count Table I payload bytes across all
	// sessions, including the handshake.
	BytesReceived int64
	BytesSent     int64
	// Reattaches counts connections that resumed a parked durable session.
	Reattaches int64
	// SessionsParked counts durable sessions whose connection died and
	// whose state was kept for a reattach (cumulative, not a gauge).
	SessionsParked int64
	// RejectedConns counts connections refused by the concurrency cap
	// (WithMaxConns).
	RejectedConns int64
	// RejectedSessions counts handshakes refused by the session cap or
	// whose admission-queue wait expired (WithMaxSessions).
	RejectedSessions int64
	// QuotaDenials counts cudaMalloc requests refused by a per-session
	// quota (WithSessionMemoryLimit, WithMaxAllocsPerSession).
	QuotaDenials int64
	// WatchdogKills counts connections killed because a transport
	// operation overran the request deadline (WithRequestDeadline).
	WatchdogKills int64
	// Evictions counts parked durable sessions destroyed by the TTL
	// garbage collector (WithParkedSessionTTL).
	Evictions int64
	// ForcedCloses counts connections force-closed because a drain or
	// Close deadline expired before they finished.
	ForcedCloses int64
	// StatsQueries counts StatsQuery requests answered, both broker health
	// probes and in-session queries.
	StatsQueries int64
	// BatchFrames counts OpBatch frames executed (replays excluded) and
	// BatchedOps the sub-operations they carried, a frame's closing
	// synchronization or query included — the round trips the batching
	// layer saved are BatchedOps − BatchFrames.
	BatchFrames int64
	BatchedOps  int64
	// BatchReplays counts batches answered from the per-session dedup state
	// without re-execution (a client retried after losing the response).
	BatchReplays int64
	// Migrations counts sessions live-migrated away to another daemon, and
	// MigrationBytes the checkpoint bytes streamed out (moves and standby
	// copies both).
	Migrations     int64
	MigrationBytes int64
	// MigrationFailures counts outbound migrations and standby copies that
	// failed; the session stays intact and reattachable here.
	MigrationFailures int64
	// RestoreFromCheckpoint counts sessions this daemon materialized from
	// an inbound checkpoint stream (a migration's destination half, or a
	// peer's standby copy).
	RestoreFromCheckpoint int64
}

// serverCounters backs Server.Stats with atomics.
type serverCounters struct {
	sessionsStarted  atomic.Int64
	sessionsActive   atomic.Int64
	requests         atomic.Int64
	bytesReceived    atomic.Int64
	bytesSent        atomic.Int64
	reattaches       atomic.Int64
	sessionsParked   atomic.Int64
	rejectedConns    atomic.Int64
	rejectedSessions atomic.Int64
	quotaDenials     atomic.Int64
	watchdogKills    atomic.Int64
	evictions        atomic.Int64
	forcedCloses     atomic.Int64
	statsQueries     atomic.Int64
	batchFrames      atomic.Int64
	batchedOps       atomic.Int64
	batchReplays     atomic.Int64

	migrations            atomic.Int64
	migrationBytes        atomic.Int64
	migrationFailures     atomic.Int64
	restoreFromCheckpoint atomic.Int64
}

// Stats returns a snapshot of the daemon's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		SessionsStarted: s.counters.sessionsStarted.Load(),
		SessionsActive:  s.counters.sessionsActive.Load(),
		Requests:        s.counters.requests.Load(),
		BytesReceived:   s.counters.bytesReceived.Load(),
		BytesSent:       s.counters.bytesSent.Load(),
		Reattaches:      s.counters.reattaches.Load(),
		SessionsParked:  s.counters.sessionsParked.Load(),

		RejectedConns:    s.counters.rejectedConns.Load(),
		RejectedSessions: s.counters.rejectedSessions.Load(),
		QuotaDenials:     s.counters.quotaDenials.Load(),
		WatchdogKills:    s.counters.watchdogKills.Load(),
		Evictions:        s.counters.evictions.Load(),
		ForcedCloses:     s.counters.forcedCloses.Load(),
		StatsQueries:     s.counters.statsQueries.Load(),
		BatchFrames:      s.counters.batchFrames.Load(),
		BatchedOps:       s.counters.batchedOps.Load(),
		BatchReplays:     s.counters.batchReplays.Load(),

		Migrations:            s.counters.migrations.Load(),
		MigrationBytes:        s.counters.migrationBytes.Load(),
		MigrationFailures:     s.counters.migrationFailures.Load(),
		RestoreFromCheckpoint: s.counters.restoreFromCheckpoint.Load(),
	}
}

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
		SessionsLive:      s.counters.sessionsActive.Load(),
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
		if !sess.attached && !sess.destroyed {
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
	r := &protocol.StatsReply{
		SessionsLive:   uint32(clampGauge(s.attached.Load())),
		SessionsParked: uint32(s.parkedNow()),
	}
	for i, dev := range s.devs {
		r.Devices = append(r.Devices, protocol.DeviceStats{
			BytesInUse:  dev.MemoryInUse(),
			Allocations: uint32(clampGauge(int64(dev.Allocations()))),
			Sessions:    uint32(clampGauge(s.devSessions[i].Load())),
			BusyNanos:   uint64(clampGauge(s.devBusy[i].Load())),
		})
	}
	if usage := s.classUsage(); usage != nil {
		// The wire's class rows are indexed by wire code - 1: realtime,
		// batch, besteffort.
		r.HasClasses = true
		for _, cu := range usage {
			r.Classes[classToWire(cu.Class)-1] = protocol.ClassLoad{
				Sessions:     uint32(clampGauge(int64(cu.Sessions))),
				P99WaitNanos: uint64(cu.WaitP99),
			}
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
func (s *Server) serveStatsConn(conn transport.Conn, first *protocol.StatsQueryRequest) error {
	_ = first
	for {
		s.counters.statsQueries.Add(1)
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

// ClientStats are cumulative per-client resilience counters.
type ClientStats struct {
	// ConnFaults counts operations interrupted by a connection-level
	// failure (reset, truncation, stall, EOF).
	ConnFaults int64
	// Retries counts re-executions of idempotent operations after a fault.
	Retries int64
	// Reconnects counts successful redial-and-reattach cycles.
	Reconnects int64
	// Recovered counts operations that ultimately succeeded on a retry.
	Recovered int64
	// BatchesFlushed counts OpBatch frames sent and OpsCoalesced the calls
	// that rode in them instead of paying their own round trip
	// (WithBatching), a synchronization or query that closed a frame
	// included.
	BatchesFlushed int64
	OpsCoalesced   int64
	// CacheHits and CacheMisses count immutable-reply lookups served from
	// and filled into the client cache (device count and properties).
	CacheHits   int64
	CacheMisses int64
	// Migrations counts reattaches redirected with CodeSessionMigrated and
	// followed to the session's new home — each is a recovery that replayed
	// nothing.
	Migrations int64
}

// clientCounters backs Client.Stats with atomics so observers can poll a
// client that is mid-operation on another goroutine.
type clientCounters struct {
	connFaults     atomic.Int64
	retries        atomic.Int64
	reconnects     atomic.Int64
	recovered      atomic.Int64
	batchesFlushed atomic.Int64
	opsCoalesced   atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	migrations     atomic.Int64
}

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		ConnFaults:     c.cstats.connFaults.Load(),
		Retries:        c.cstats.retries.Load(),
		Reconnects:     c.cstats.reconnects.Load(),
		Recovered:      c.cstats.recovered.Load(),
		BatchesFlushed: c.cstats.batchesFlushed.Load(),
		OpsCoalesced:   c.cstats.opsCoalesced.Load(),
		CacheHits:      c.cstats.cacheHits.Load(),
		CacheMisses:    c.cstats.cacheMisses.Load(),
		Migrations:     c.cstats.migrations.Load(),
	}
}
