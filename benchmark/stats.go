package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as a tail.
const minBeyond = 10

// tailLadder are the tail percentiles the report may use, ascending.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// nearestRank is ceil(p/100 × n), the 1-based rank of the p-th
// percentile; the epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// samplesBeyond counts the samples strictly above the nearest-rank
// p-th percentile of a sample of n.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// supportedTail returns the highest ladder percentile with at least
// minBeyond samples beyond it, or 0 when not even the lowest rung has.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midMean is the mean of the middle half of a sample (the quarter of
// the values at each end dropped): as deaf to outliers as the median,
// but not confined to the sample's own values, which for per-second
// counts are whole numbers that would read the same run after run.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method), so a spread computed here is the one the driver computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median; 0
// when there are fewer than two values or the median is 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
