// Package metrics provides the instrumentation primitives every role
// records into: plain atomic counters, and the Prometheus-style counters,
// gauges, histograms and registry in prom.go.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
