// Package metrics provides the instrumentation primitives every role
// records into: plain atomic counters, the counter tables that declare a
// role's counters once, and the Prometheus-style counters, gauges,
// histograms and registry in prom.go.
package metrics

import (
	"fmt"
	"strings"
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

// CounterDef describes one row of a counter table: Plane groups it (and
// names its metric family's plane), Name labels it in CLI output, and
// Metric is the family suffix after blobseer_<plane>_ ("" = not exported;
// a suffix without _total is a gauge) with Help as its help string (and
// the counter's documentation). A role declares each of its counters as
// one row of a table indexed by its counter ids; the wire codec, /metrics
// (TableCollectors) and the CLI (Summary) all range over the table.
type CounterDef struct {
	Plane, Name, Metric, Help string
}

// TableCollectors returns one collector per exported row of table, each
// labeled with labels and reading its value as read(id) at scrape time.
func TableCollectors(table []CounterDef, labels []Label, read func(id int) uint64) []Collector {
	var cs []Collector
	for id, def := range table {
		if def.Metric == "" {
			continue
		}
		fn := CounterFunc
		if !strings.HasSuffix(def.Metric, "_total") {
			fn = GaugeFunc
		}
		cs = append(cs, fn("blobseer_"+def.Plane+"_"+def.Metric, def.Help, labels,
			func() float64 { return float64(read(id)) }))
	}
	return cs
}

// Summary renders vals, one per row of table, as one "plane: name=v ..."
// group per plane, in table order, joined by sep. keep selects the planes
// to render (nil renders every plane).
func Summary(table []CounterDef, vals []uint64, sep string, keep func(plane string) bool) string {
	var groups []string
	plane := ""
	for id, def := range table {
		if keep != nil && !keep(def.Plane) {
			continue
		}
		if groups == nil || def.Plane != plane {
			plane = def.Plane
			groups = append(groups, plane+":")
		}
		groups[len(groups)-1] += fmt.Sprintf(" %s=%d", def.Name, vals[id])
	}
	return strings.Join(groups, sep)
}
