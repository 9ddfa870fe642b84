// Package metrics provides the instrumentation primitives every role
// records into: plain atomic counters, windowed rates, value series with
// summary statistics, and the Prometheus-style counters, gauges,
// histograms and registry in prom.go.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Rate accumulates an amount (typically bytes) that a sampler periodically
// drains, yielding per-interval deltas for time-series monitoring.
type Rate struct {
	v atomic.Int64
}

// Add accumulates n into the current window.
func (r *Rate) Add(n int64) { r.v.Add(n) }

// Drain returns the accumulated amount and resets the window to zero.
func (r *Rate) Drain() int64 { return r.v.Swap(0) }

// Series is a concurrency-safe sequence of float64 samples with summary
// statistics. The zero value is ready to use.
type Series struct {
	mu   sync.Mutex
	vals []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

// Len reports the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Values returns a copy of the samples.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 { return Mean(s.Values()) }

// StdDev returns the population standard deviation (0 for len < 2).
func (s *Series) StdDev() float64 { return StdDev(s.Values()) }

// Min returns the smallest sample (0 for an empty series).
func (s *Series) Min() float64 {
	v := s.Values()
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest sample (0 for an empty series).
func (s *Series) Max() float64 {
	v := s.Values()
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy; 0 for an empty series.
func (s *Series) Percentile(p float64) float64 { return Percentile(s.Values(), p) }

// String summarizes the series for logs.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f",
		s.Len(), s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Mean returns the arithmetic mean of vals (0 if empty).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// StdDev returns the population standard deviation of vals (0 if len < 2).
func StdDev(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := Mean(vals)
	var ss float64
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)))
}

// Percentile returns the p-th nearest-rank percentile of vals (0 if empty).
// p is clamped to [0, 100].
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
