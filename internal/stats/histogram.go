package stats

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// DurationHistogram accumulates durations into logarithmic buckets so that
// percentiles over very large samples (the load generator records one
// queue-wait per simulated session, up to 10^6 of them) cost O(1) memory
// and stay exactly reproducible. Bucket k covers
// (histBounds[k-1], histBounds[k]], about [unit·growth^k, unit·growth^(k+1));
// with quarter-octave growth the relative quantization error of a reported
// percentile is under ~9%, which is far below the run-to-run spread any
// real load test shows.
//
// The zero value is not ready for use; call NewDurationHistogram.
type DurationHistogram struct {
	counts  []uint64 // histogramBuckets+2: [<unit], buckets..., [overflow]
	n       uint64
	sum     float64 // seconds, to survive >292y aggregate totals
	max     time.Duration
	nonZero uint64
}

// The bucket layout every histogram shares: a 1µs resolution floor and
// quarter-octave (2^¼ ≈ 1.19x) growth; 160 buckets reach ~1.2e6 s, beyond
// any plausible queue wait.
const (
	histogramBuckets = 160
	histUnit         = time.Microsecond
	histGrowth       = 1.18920711500272106671749997056 // 2^¼
)

// overflowFrom is where the top bucket ends: durations from 8 ns under its
// bound upward count as overflow, where the logarithmic bucket index this
// histogram first used rounded them. The edge stays so every duration
// lands in the bucket it always has.
const overflowFrom = 1_099_511_627_775_991

// histBounds is the upper bound of each bucket, ascending: each the one
// before times histGrowth, from histUnit, truncated to a Duration.
// octaveStart[n] is the first bucket whose bound reaches 2^(n-1), the
// least duration n bits long, so a duration of n bits lands there or a few
// buckets (about four per octave) later.
var histBounds, octaveStart = histogramLayout()

func histogramLayout() (bounds [histogramBuckets]time.Duration, starts [64]uint8) {
	b := float64(histUnit)
	for i := range bounds {
		b *= histGrowth
		bounds[i] = time.Duration(b)
	}
	for n := 1; n < len(starts); n++ {
		least := time.Duration(1) << (n - 1)
		starts[n] = uint8(sort.Search(len(bounds), func(i int) bool { return bounds[i] >= least }))
	}
	return bounds, starts
}

// NewDurationHistogram returns an empty histogram.
func NewDurationHistogram() *DurationHistogram {
	return &DurationHistogram{counts: make([]uint64, histogramBuckets+2)}
}

// Record adds one duration. Negative durations count as zero.
func (h *DurationHistogram) Record(d time.Duration) {
	h.n++
	if d <= 0 {
		h.counts[0]++
		return
	}
	h.nonZero++
	h.sum += d.Seconds()
	if d > h.max {
		h.max = d
	}
	if d < histUnit {
		h.counts[0]++
		return
	}
	if d >= overflowFrom {
		h.counts[len(h.counts)-1]++
		return
	}
	// Start at the first bucket of d's octave and walk up to the one whose
	// exact bound holds it; d < overflowFrom, under the last bound, ends the
	// walk.
	i := int(octaveStart[bits.Len64(uint64(d))])
	for d > histBounds[i] {
		i++
	}
	h.counts[i+1]++
}

// N returns the number of recorded durations.
func (h *DurationHistogram) N() uint64 { return h.n }

// Max returns the largest recorded duration.
func (h *DurationHistogram) Max() time.Duration { return h.max }

// Mean returns the arithmetic mean of the recorded durations (exact, not
// quantized), or zero when empty.
func (h *DurationHistogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.n) * float64(time.Second))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) as the upper bound
// of the bucket holding the p-th ranked sample — a deterministic,
// slightly conservative estimate. Samples below the resolution floor
// report zero; the overflow bucket reports the exact maximum.
func (h *DurationHistogram) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// Rank of the target sample, 1-based, ceiling: p99 of 200 samples is
	// sample 198.
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			switch {
			case i == 0:
				return 0
			case i == len(h.counts)-1:
				return h.max
			default:
				b := histBounds[i-1]
				if b > h.max {
					return h.max
				}
				return b
			}
		}
	}
	return h.max
}

// Merge adds other's samples into h. Both histograms must come from
// NewDurationHistogram (identical bucket layout).
func (h *DurationHistogram) Merge(other *DurationHistogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.nonZero += other.nonZero
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}
