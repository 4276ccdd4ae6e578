package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewDurationHistogram()
	if h.N() != 0 || h.Percentile(99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: n=%d p99=%v mean=%v max=%v", h.N(), h.Percentile(99), h.Mean(), h.Max())
	}
}

func TestHistogramZeros(t *testing.T) {
	h := NewDurationHistogram()
	for i := 0; i < 100; i++ {
		h.Record(0)
	}
	h.Record(time.Millisecond)
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("p50 of mostly-zero sample = %v, want 0", got)
	}
	if got := h.Percentile(100); got != time.Millisecond {
		t.Fatalf("p100 = %v, want 1ms (exact max)", got)
	}
}

// TestHistogramPercentileAccuracy checks the quantized percentile against
// the exact one on a heavy-tailed sample: error must stay within one bucket
// (under ~19%, one growth step).
func TestHistogramPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewDurationHistogram()
	var xs []time.Duration
	for i := 0; i < 50000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(3*time.Millisecond))
		xs = append(xs, d)
		h.Record(d)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		rank := int(p/100*float64(len(xs))) - 1
		if rank < 0 {
			rank = 0
		}
		exact := xs[rank]
		got := h.Percentile(p)
		ratio := float64(got) / float64(exact)
		if ratio < 0.95 || ratio > 1.25 {
			t.Fatalf("p%.1f = %v vs exact %v (ratio %.3f)", p, got, exact, ratio)
		}
	}
	if h.Max() != xs[len(xs)-1] {
		t.Fatalf("max %v, want %v", h.Max(), xs[len(xs)-1])
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewDurationHistogram()
	// Durations exactly on bucket bounds must land deterministically; the
	// recorded percentile of a single sample is at most one bucket above it.
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, time.Second} {
		h := NewDurationHistogram()
		h.Record(d)
		got := h.Percentile(100)
		if got < d || float64(got) > float64(d)*1.2 {
			t.Fatalf("single sample %v reported as %v", d, got)
		}
	}
	_ = h
}

func TestHistogramMerge(t *testing.T) {
	a, b, both := NewDurationHistogram(), NewDurationHistogram(), NewDurationHistogram()
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 10 * time.Microsecond
		both.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(b)
	if a.N() != both.N() || a.Max() != both.Max() {
		t.Fatalf("merged n=%d max=%v, want n=%d max=%v", a.N(), a.Max(), both.N(), both.Max())
	}
	for _, p := range []float64{50, 99} {
		if a.Percentile(p) != both.Percentile(p) {
			t.Fatalf("p%.0f merged %v != direct %v", p, a.Percentile(p), both.Percentile(p))
		}
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewDurationHistogram()
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)
	if got := h.Mean(); got != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", got)
	}
}

// logBucket is the bucket index Record computed by logarithm before it
// walked from octaveStart: counts' index for d, the overflow shortcut
// included.
func logBucket(bounds []time.Duration, d time.Duration) int {
	overflow := len(bounds) + 1
	if d < time.Microsecond {
		return 0
	}
	i := int(math.Log(float64(d)/float64(time.Microsecond)) / math.Log(math.Pow(2, 0.25)))
	if i < 0 {
		i = 0
	}
	if i >= len(bounds) {
		return overflow
	}
	for i > 0 && d <= bounds[i-1] {
		i--
	}
	for i < len(bounds) && d > bounds[i] {
		i++
	}
	if i >= len(bounds) {
		return overflow
	}
	return i + 1
}

// bucketOf records d alone and returns the index of the count it raised.
func bucketOf(d time.Duration) int {
	h := NewDurationHistogram()
	h.Record(d)
	for i, c := range h.counts {
		if c != 0 {
			return i
		}
	}
	return -1
}

// TestHistogramMatchesLogIndex holds Record's octave walk to the
// logarithmic index it replaced: the same bounds bit for bit, and every
// bound ±1 ns plus 10^5 seeded durations from 1 ns to 2^62 ns in the same
// bucket, the durations just under the last bound that the logarithm
// rounded into the overflow bucket included.
func TestHistogramMatchesLogIndex(t *testing.T) {
	bounds := make([]time.Duration, histogramBuckets)
	b, growth := float64(time.Microsecond), math.Pow(2, 0.25)
	for i := range bounds {
		b *= growth
		bounds[i] = time.Duration(b)
	}
	if growth != histGrowth {
		t.Fatalf("histGrowth %v, want math.Pow(2, 0.25) = %v", float64(histGrowth), growth)
	}
	for i := range bounds {
		if histBounds[i] != bounds[i] {
			t.Fatalf("bound %d = %d, want %d", i, histBounds[i], bounds[i])
		}
	}
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketOf(d), logBucket(bounds, d); got != want {
			t.Fatalf("%d ns landed in count %d, the logarithmic index put it in %d", d, got, want)
		}
	}
	for _, bd := range bounds {
		check(bd - 1)
		check(bd)
		check(bd + 1)
	}
	if got := bucketOf(bounds[len(bounds)-1]); got != histogramBuckets+1 {
		t.Fatalf("the last bound landed in count %d, want the overflow count", got)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		check(time.Duration(math.Exp2(rng.Float64() * 62)))
	}
	for d := time.Duration(overflowFrom) - 16; d < time.Duration(overflowFrom)+16; d++ {
		check(d)
	}
}
