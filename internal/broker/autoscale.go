package broker

import (
	"fmt"
	"sync"
	"time"
)

// This file closes the elasticity loop: the pool already *observes* load
// (probe gauges) and *reacts* to failure (markdown, spill, failover); the
// Autoscaler decides when the fleet itself should grow or shrink. It is
// deliberately policy-pure — it never touches sockets or daemons, it only
// calls a ScaleDriver. The load generator's driver grows and shrinks its
// simulated fleets through Placer.Add / Retire, where the control law is
// chaos-tested against fault-injected daemon kills at 10^5–10^6 session
// scale; no command wires a driver to a live Pool.
//
// The control law is target occupancy with hysteresis and cooldown:
//
//   - occupancy = demand / (daemons · DaemonCapacity), where demand counts
//     live sessions plus queued placements (queued demand must push the
//     fleet up, or a saturated pool would look exactly "full" forever);
//   - above UpThreshold the fleet grows toward
//     ceil(demand / (capacity · TargetOccupancy));
//   - below DownThreshold it shrinks toward the same target;
//   - no two actions happen within Cooldown of each other, so a burst's
//     edge cannot flap the fleet.
//
// Scale-down must never strand a session: the driver's Retire is asked for
// one daemon at a time, drains a chosen daemon by live-migrating its
// resident durable sessions to peers with spare capacity, and may refuse
// (veto) when no daemon can drain cleanly — e.g. nowhere has room for the
// residents; vetoes are counted, not retried within the same decision.

// AutoscalerConfig parameterizes the control law. The zero value is
// completed by sensible defaults (see withDefaults).
type AutoscalerConfig struct {
	// Min and Max bound the fleet size. Min defaults to 1; Max defaults to
	// 64.
	Min, Max int
	// DaemonCapacity is the session capacity of one daemon, the
	// denominator of the occupancy signal. Defaults to 64.
	DaemonCapacity int
	// TargetOccupancy is the fleet utilization the controller steers
	// toward after a threshold trips. Defaults to 0.70.
	TargetOccupancy float64
	// UpThreshold and DownThreshold are the hysteresis band: no action is
	// taken while occupancy stays inside (Down, Up). Default 0.85 / 0.45.
	UpThreshold, DownThreshold float64
	// Cooldown is the minimum time between two scaling actions. Defaults
	// to 10 seconds (of the caller's clock — virtual in simulations).
	Cooldown time.Duration
	// MaxStep bounds how many daemons one decision may add or remove.
	// Zero means unbounded: jump straight to the target size.
	MaxStep int
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 64
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.DaemonCapacity <= 0 {
		c.DaemonCapacity = 64
	}
	if c.TargetOccupancy <= 0 || c.TargetOccupancy > 1 {
		c.TargetOccupancy = 0.70
	}
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		c.UpThreshold = 0.85
	}
	if c.DownThreshold < 0 || c.DownThreshold >= c.UpThreshold {
		c.DownThreshold = 0.45
		if c.DownThreshold >= c.UpThreshold {
			c.DownThreshold = c.UpThreshold / 2
		}
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	return c
}

// ScaleDriver performs the fleet mutations the Autoscaler decides on.
type ScaleDriver interface {
	// Spawn starts one daemon and registers its endpoint.
	Spawn() error
	// Retire drains and retires one daemon of the driver's choosing,
	// live-migrating its resident durable sessions to peers with spare
	// capacity (Pool.MigrateTo over live daemons, drain-by-migration in
	// the load generator). It returns false (a veto, not an error) when no
	// daemon can currently retire without stranding a session — e.g. no
	// peer has room for any candidate's residents.
	Retire() (bool, error)
}

// AutoscalerStats are the controller's cumulative decision counters.
type AutoscalerStats struct {
	// ScaleUps and ScaleDowns count daemons added/removed (not decisions).
	ScaleUps, ScaleDowns int64
	// UpDecisions and DownDecisions count threshold trips that led to at
	// least one attempted action.
	UpDecisions, DownDecisions int64
	// CooldownHolds counts threshold trips suppressed by the cooldown.
	CooldownHolds int64
	// RetireVetoes counts scale-down attempts the driver refused because
	// draining would strand a session.
	RetireVetoes int64
	// SpawnErrors counts failed Spawn calls.
	SpawnErrors int64
}

// Autoscaler drives a ScaleDriver from observed occupancy. It keeps no
// clock of its own: Observe takes the current instant explicitly, so the
// controller is exactly as deterministic as its caller's timeline.
type Autoscaler struct {
	cfg    AutoscalerConfig
	driver ScaleDriver

	mu      sync.Mutex
	acted   bool
	lastAct time.Duration
	stats   AutoscalerStats
}

// NewAutoscaler builds a controller over the driver. cfg zero fields take
// defaults.
func NewAutoscaler(cfg AutoscalerConfig, driver ScaleDriver) *Autoscaler {
	if driver == nil {
		panic("broker: NewAutoscaler with nil driver")
	}
	return &Autoscaler{cfg: cfg.withDefaults(), driver: driver}
}

// Config returns the effective (default-completed) configuration.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// Stats returns a snapshot of the decision counters.
func (a *Autoscaler) Stats() AutoscalerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Observe feeds one load observation into the controller: demand is the
// number of sessions wanting service (live plus queued), daemons the
// current fleet size. It returns the net fleet delta this observation
// caused (positive = spawned) and the first driver error, if any.
func (a *Autoscaler) Observe(now time.Duration, demand, daemons int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	target := a.desired(demand)
	switch {
	case daemons < a.cfg.Min:
		// Below the floor — e.g. chaos killed daemons out from under us.
		// The floor is not subject to hysteresis or cooldown.
		target = max(target, a.cfg.Min)
	case a.occupancy(demand, daemons) >= a.cfg.UpThreshold && target > daemons:
		// grow
	case a.occupancy(demand, daemons) <= a.cfg.DownThreshold && target < daemons:
		// shrink
	default:
		return 0, nil
	}

	if a.acted && now-a.lastAct < a.cfg.Cooldown && daemons >= a.cfg.Min {
		a.stats.CooldownHolds++
		return 0, nil
	}

	step := target - daemons
	if a.cfg.MaxStep > 0 {
		if step > a.cfg.MaxStep {
			step = a.cfg.MaxStep
		}
		if step < -a.cfg.MaxStep {
			step = -a.cfg.MaxStep
		}
	}
	if step == 0 {
		return 0, nil
	}

	var delta int
	var firstErr error
	if step > 0 {
		a.stats.UpDecisions++
		for i := 0; i < step; i++ {
			if err := a.driver.Spawn(); err != nil {
				a.stats.SpawnErrors++
				if firstErr == nil {
					firstErr = fmt.Errorf("broker: autoscaler spawn: %w", err)
				}
				break
			}
			a.stats.ScaleUps++
			delta++
		}
	} else {
		a.stats.DownDecisions++
		for i := 0; i < -step; i++ {
			ok, err := a.driver.Retire()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("broker: autoscaler retire: %w", err)
				}
				break
			}
			if !ok {
				// Veto: nothing can drain right now. Stop trying this round.
				a.stats.RetireVetoes++
				break
			}
			a.stats.ScaleDowns++
			delta--
		}
	}
	if delta != 0 {
		a.acted = true
		a.lastAct = now
	}
	return delta, firstErr
}

// occupancy is the load signal: demand over fleet session capacity. An
// empty fleet with demand reads as above any threshold.
func (a *Autoscaler) occupancy(demand, daemons int) float64 {
	if daemons <= 0 {
		if demand > 0 {
			return 2 // > any threshold
		}
		return 0
	}
	return float64(demand) / float64(daemons*a.cfg.DaemonCapacity)
}

// desired is the fleet size that would put occupancy at the target,
// clamped to [Min, Max].
func (a *Autoscaler) desired(demand int) int {
	perDaemon := float64(a.cfg.DaemonCapacity) * a.cfg.TargetOccupancy
	n := int(ceilDiv(float64(demand), perDaemon))
	if n < a.cfg.Min {
		n = a.cfg.Min
	}
	if n > a.cfg.Max {
		n = a.cfg.Max
	}
	return n
}

func ceilDiv(a, b float64) float64 {
	n := a / b
	if n != float64(int(n)) {
		return float64(int(n)) + 1
	}
	return n
}
