package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// Noise is a deterministic, seeded source of measurement variability. It is
// applied multiplicatively to modeled durations, emulating the run-to-run
// jitter the paper reports (standard deviations up to 22.7 µs on GigaE
// small-message latencies and up to 1.0 s on the largest MM executions).
// A nil *Noise is valid and means "no noise".
type Noise struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sigma float64
}

// NewNoise returns a noise source with the given seed and relative standard
// deviation (e.g. 0.008 for 0.8%). A sigma of 0 yields a pass-through
// source that still consumes no randomness.
func NewNoise(seed int64, sigma float64) *Noise {
	return &Noise{rng: rand.New(rand.NewSource(seed)), sigma: sigma}
}

// Perturb scales d by a factor drawn from N(1, sigma), clamped to [0.5, 1.5]
// so a single extreme draw cannot produce a negative or absurd latency.
func (n *Noise) Perturb(d time.Duration) time.Duration {
	if n == nil || n.sigma == 0 {
		return d
	}
	n.mu.Lock()
	f := 1 + n.rng.NormFloat64()*n.sigma
	n.mu.Unlock()
	if f < 0.5 {
		f = 0.5
	} else if f > 1.5 {
		f = 1.5
	}
	return time.Duration(float64(d) * f)
}
