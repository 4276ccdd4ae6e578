package broker

import "sync/atomic"

// PoolStats are the pool's cumulative placement and health counters.
type PoolStats struct {
	// Placements counts sessions successfully opened through the pool.
	Placements int64
	// Spills counts placements that moved to the next-best endpoint
	// because the preferred server refused admission (ErrServerBusy).
	Spills int64
	// Failovers counts jobs replayed on another endpoint after their
	// session was lost mid-run.
	Failovers int64
	// Probes and ProbeFailures count health-probe exchanges.
	Probes        int64
	ProbeFailures int64
	// Markdowns and Markups count endpoint health transitions — one flap
	// is one markdown plus one markup.
	Markdowns int64
	Markups   int64
	// Retirements counts endpoints permanently removed from placement by
	// elastic scale-down.
	Retirements int64
	// Migrations counts sessions live-migrated between endpoints through
	// Pool.Migrate, and MigrationBytes the checkpoint bytes they streamed.
	Migrations     int64
	MigrationBytes int64
	// MigrationFailures counts migrations that failed; the session stays
	// intact on its source endpoint.
	MigrationFailures int64
	// RestoreFromCheckpoint counts route redials that failed over to a peer
	// endpoint, where a migrated or standby-checkpoint copy of the session
	// gets the chance to resume without a replay.
	RestoreFromCheckpoint int64
}

type poolCounters struct {
	placements    atomic.Int64
	spills        atomic.Int64
	failovers     atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64
	markdowns     atomic.Int64
	markups       atomic.Int64
	retirements   atomic.Int64

	migrations            atomic.Int64
	migrationBytes        atomic.Int64
	migrationFailures     atomic.Int64
	restoreFromCheckpoint atomic.Int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats { return p.pl.Stats() }

// EndpointStatus is the pool's current view of one endpoint.
type EndpointStatus struct {
	Name string
	Up   bool
	// Retired marks an endpoint removed from placement by scale-down; its
	// slot is kept so indices stay stable.
	Retired bool
	// LastErr is the most recent probe or placement failure, empty when
	// healthy.
	LastErr string
	// Probed reports whether a probe has ever succeeded; the gauges below
	// are zero until it has.
	Probed         bool
	SessionsLive   uint32
	SessionsParked uint32
	Devices        int
	BytesInUse     uint64
	BusyNanos      uint64
	// PlacedSinceProbe counts sessions this pool placed since the gauges
	// were last refreshed.
	PlacedSinceProbe int64
	// Full reports the advisory full mark: the endpoint refused admission
	// and neither a probe nor a released session has cleared the mark yet.
	Full bool
}

// Endpoints reports every endpoint's health and last-probed load, in
// registration order.
func (p *Pool) Endpoints() []EndpointStatus { return p.pl.Endpoints() }
