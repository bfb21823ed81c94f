package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles the tail rule chooses from.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile is the tail rule: the highest percentile of the
// ladder that leaves at least ten of n samples beyond it, so a tail
// figure always rests on ten or more observations. It returns 0 when
// even the median leaves fewer than ten.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// beyond is the number of the n samples that lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n > 0
// samples. The small tolerance keeps p·n/100 from rounding up past an
// exact integer (99.9% of 10,000 is rank 9,990, not 9,991).
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share returns a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return share(sum(xs), float64(len(xs))) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
