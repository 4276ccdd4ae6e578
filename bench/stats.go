package main

import (
	"math"
	"slices"
	"sort"
)

// The statistics below are the harness's own, not internal/stats: the
// yardstick must not move when the code it measures is changed.

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice. Empty input is 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does — the
// definition the benchmark contract judges spreads by. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// percentileSorted returns the p-th percentile (0..100) of sorted samples
// by nearest rank.
func percentileSorted(s []uint32, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return float64(s[rank-1])
}

// tailPercentile returns the highest percentile of the ladder
// 50/90/99/99.9/99.99 that still has at least ten of n samples beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	// The ladder in parts per 10 000, so the test is exact in integers.
	for _, q := range []int{9000, 9900, 9990, 9999} {
		if n*(10000-q) >= 10*10000 {
			best = float64(q) / 100
		}
	}
	return best
}

// medianU32 returns the median of the samples, sorting them in place.
func medianU32(s []uint32) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}
