package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of an ascending sample the way
// Python's statistics.quantiles(method="exclusive") does — position
// q*(n+1), clamped to the sample — so a median here is the median the
// driver computes.
func quantile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1 // zero-based
	if pos <= 0 {
		return asc[0]
	}
	if pos >= float64(n-1) {
		return asc[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentile is the nearest-rank p-th percentile (0 < p < 100) of an
// ascending sample: the smallest value with at least p% of the sample at
// or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[nearestRank(len(asc), p)-1]
}

// nearestRank is the one-based position of the p-th percentile among n
// ascending samples. The epsilon keeps 99.9 % of 10 000 at 9 990, not at
// the 9 991 that 9990.000000000002 would round up to.
func nearestRank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// samplesBeyond counts the samples above the nearest-rank p-th percentile's
// position.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailSupported reports whether the p-th percentile of n samples has at
// least ten samples beyond it; a tail percentile resting on fewer is one or
// two outliers, not a measurement.
func tailSupported(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// highestSupported picks, from an ascending ladder of percentiles, the
// highest one that n samples support (0 when none is).
func highestSupported(n int, ladder []float64) float64 {
	best := 0.0
	for _, p := range ladder {
		if tailSupported(n, p) {
			best = p
		}
	}
	return best
}
