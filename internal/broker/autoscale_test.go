package broker

import (
	"errors"
	"testing"
	"time"
)

// fakeDriver records scale actions and can veto retirements.
type fakeDriver struct {
	daemons  int
	vetoes   int // pending retire vetoes to emit
	spawnErr error
}

func (d *fakeDriver) Spawn() error {
	if d.spawnErr != nil {
		return d.spawnErr
	}
	d.daemons++
	return nil
}

func (d *fakeDriver) Retire() (bool, error) {
	if d.vetoes > 0 {
		d.vetoes--
		return false, nil
	}
	d.daemons--
	return true, nil
}

// The tests run the control law production runs: targetOccupancy 0.70 and
// upThreshold 0.85, and the DownThreshold the scale-down scenarios set.
// With a capacity of 10 the target is 7 sessions per daemon.

func TestAutoscalerDefaults(t *testing.T) {
	cfg := AutoscalerConfig{}.withDefaults()
	if cfg.Min != 1 || cfg.Max != 64 || cfg.DaemonCapacity != 64 || cfg.Cooldown != 10*time.Second {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.DownThreshold >= upThreshold || targetOccupancy <= cfg.DownThreshold || targetOccupancy >= upThreshold {
		t.Fatalf("thresholds out of order: down %v, target %v, up %v", cfg.DownThreshold, targetOccupancy, upThreshold)
	}
	for _, down := range []float64{-1, 0, upThreshold, 0.9} {
		if got := (AutoscalerConfig{DownThreshold: down}).withDefaults().DownThreshold; got != 0.45 {
			t.Fatalf("DownThreshold %v reads as %v, want 0.45", down, got)
		}
	}
}

func TestAutoscalerScalesUpTowardTarget(t *testing.T) {
	d := &fakeDriver{daemons: 1}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 10, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: time.Second,
	}, d)
	// demand 40 on 1×10 capacity: occupancy 4.0 ≥ 0.85; desired =
	// ceil(40/(10·0.7)) = 6, reached in one decision.
	delta, err := a.Observe(0, 40, d.daemons)
	if err != nil || delta != 5 || d.daemons != 6 {
		t.Fatalf("scale-up: delta=%d daemons=%d err=%v", delta, d.daemons, err)
	}
	if s := a.Stats(); s.ScaleUps != 5 || s.UpDecisions != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAutoscalerHysteresisBand(t *testing.T) {
	d := &fakeDriver{daemons: 10}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 20, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: time.Second,
	}, d)
	// Every occupancy sits inside (0.6, 0.85): no action, though the
	// target (9, 10 and 12 daemons) lies below, at and above the fleet.
	for _, demand := range []int{61, 70, 84} {
		if delta, _ := a.Observe(0, demand, d.daemons); delta != 0 {
			t.Fatalf("demand %d inside band moved the fleet by %d", demand, delta)
		}
	}
	if d.daemons != 10 {
		t.Fatalf("fleet moved to %d inside the hysteresis band", d.daemons)
	}
	// At the edges the controller acts: 85 trips the high edge (target
	// 13), then 60 on 13 daemons sits below the low one (target 9).
	if delta, _ := a.Observe(0, 85, d.daemons); delta != 3 {
		t.Fatalf("demand 85 moved the fleet by %d, want +3", delta)
	}
	if delta, _ := a.Observe(2*time.Second, 60, d.daemons); delta != -4 {
		t.Fatalf("demand 60 on 13 daemons moved the fleet by %d, want -4", delta)
	}
}

func TestAutoscalerCooldownSuppresses(t *testing.T) {
	d := &fakeDriver{daemons: 1}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 10, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: 10 * time.Second,
	}, d)
	// demand 20: desired = ceil(20/7) = 3.
	if delta, _ := a.Observe(0, 20, d.daemons); delta != 2 {
		t.Fatalf("first action delta=%d", delta)
	}
	// Another trip 1s later is held by the 10s cooldown.
	if delta, _ := a.Observe(time.Second, 200, d.daemons); delta != 0 {
		t.Fatalf("cooldown breached: delta=%d", delta)
	}
	if s := a.Stats(); s.CooldownHolds != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// After the cooldown expires the controller acts again.
	if delta, _ := a.Observe(11*time.Second, 200, d.daemons); delta <= 0 {
		t.Fatalf("post-cooldown delta=%d", delta)
	}
}

func TestAutoscalerScaleDownVeto(t *testing.T) {
	d := &fakeDriver{daemons: 6, vetoes: 1}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 10, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: time.Second,
	}, d)
	// demand 5 on 6×10: occupancy 0.083 ≤ 0.6; desired = 1. The first
	// Retire is vetoed (a daemon still holds sessions), which ends the
	// decision without stranding anything.
	delta, err := a.Observe(0, 5, d.daemons)
	if err != nil || delta != 0 || d.daemons != 6 {
		t.Fatalf("vetoed scale-down: delta=%d daemons=%d err=%v", delta, d.daemons, err)
	}
	if s := a.Stats(); s.RetireVetoes != 1 || s.ScaleDowns != 0 || s.DownDecisions != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// With the veto cleared the next trip drains toward the target.
	delta, err = a.Observe(2*time.Second, 5, d.daemons)
	if err != nil || delta != -5 || d.daemons != 1 {
		t.Fatalf("drained scale-down: delta=%d daemons=%d err=%v", delta, d.daemons, err)
	}
}

func TestAutoscalerFloorIgnoresCooldown(t *testing.T) {
	d := &fakeDriver{daemons: 3}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 2, Max: 10, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: time.Hour,
	}, d)
	// demand 15 on 3×10: desired = ceil(15/7) = 3, the fleet's size.
	if delta, _ := a.Observe(0, 15, d.daemons); delta != 0 {
		t.Fatalf("at-target observation acted: %d", delta)
	}
	// Chaos kills the fleet below Min: the floor is restored immediately,
	// cooldown or not.
	d.daemons = 0
	delta, err := a.Observe(time.Millisecond, 0, d.daemons)
	if err != nil || delta < 2 || d.daemons < 2 {
		t.Fatalf("floor restore: delta=%d daemons=%d err=%v", delta, d.daemons, err)
	}
}

func TestAutoscalerBounds(t *testing.T) {
	d := &fakeDriver{daemons: 1}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 4, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: time.Second,
	}, d)
	// Huge demand, but Max caps the fleet at 4.
	for i := 0; i < 10; i++ {
		_, _ = a.Observe(time.Duration(i)*2*time.Second, 1000, d.daemons)
	}
	if d.daemons != 4 {
		t.Fatalf("fleet = %d, want Max=4", d.daemons)
	}
	if s := a.Stats(); s.ScaleUps != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAutoscalerSpawnErrorSurfaces(t *testing.T) {
	boom := errors.New("no capacity")
	d := &fakeDriver{daemons: 1, spawnErr: boom}
	a := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 10, DaemonCapacity: 10, DownThreshold: 0.6, Cooldown: time.Second,
	}, d)
	_, err := a.Observe(0, 100, d.daemons)
	if !errors.Is(err, boom) {
		t.Fatalf("spawn error not surfaced: %v", err)
	}
	if s := a.Stats(); s.SpawnErrors != 1 {
		t.Fatalf("stats: %+v", s)
	}
}
