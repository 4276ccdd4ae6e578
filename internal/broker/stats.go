package broker

// PoolCounts declares the pool's placement and health counters once:
// PoolStats is its snapshot and the Placer adds to a
// PoolCounts[atomic.Int64].
type PoolCounts[T any] struct {
	// Placements counts sessions successfully opened through the pool.
	Placements T
	// Spills counts placements that moved to the next-best endpoint
	// because the preferred server refused admission (ErrServerBusy).
	Spills T
	// Failovers counts jobs replayed on another endpoint after their
	// session was lost mid-run.
	Failovers T
	// Probes and ProbeFailures count health-probe exchanges.
	Probes        T
	ProbeFailures T
	// Markdowns and Markups count endpoint health transitions — one flap
	// is one markdown plus one markup.
	Markdowns T
	Markups   T
	// Retirements counts endpoints permanently removed from placement by
	// elastic scale-down.
	Retirements T
	// Migrations counts sessions live-migrated between endpoints through
	// Pool.Migrate, and MigrationBytes the checkpoint bytes they streamed.
	Migrations     T
	MigrationBytes T
	// MigrationFailures counts migrations that failed; the session stays
	// intact on its source endpoint.
	MigrationFailures T
	// RestoreFromCheckpoint counts route redials that failed over to a peer
	// endpoint, where a migrated or standby-checkpoint copy of the session
	// gets the chance to resume without a replay.
	RestoreFromCheckpoint T
}

// PoolStats are the pool's cumulative placement and health counters.
type PoolStats = PoolCounts[int64]

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
