package main

import (
	"math"
	"sort"
)

// Exact order statistics over small in-memory samples. The benchmark
// keeps every latency it measures (a run is at most a few hundred
// thousand operations), so percentiles are read off a sorted copy
// rather than a bucketed histogram — no bucket boundary can hide a
// regression smaller than the bucket.

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank method; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; the mean of the two middle values for
// an even count (the definition statistics.median uses, so the
// -repeat table and the driver's arithmetic agree).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean of a sample; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// computes them — the arithmetic the driver applies to ten runs.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sortedCopy(xs)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// steadiness figure the benchmark contract bounds.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
