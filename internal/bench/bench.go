// Package bench implements the experiment harness: one runner per figure
// or table of the reconstructed BlobSeer evaluation (the registry in this
// package is the experiment index).
// Each runner deploys a cluster on the simulated fabric, drives the
// workload, and returns printable rows; bench_test.go wraps every runner
// in a testing.B benchmark and cmd/blobseer-bench prints the full tables.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
)

// newRng returns a deterministic random source for workload generation.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Row is one data point of a figure or table.
type Row struct {
	// Series distinguishes lines within one figure (e.g. "centralized"
	// vs "decentralized").
	Series string
	// X is the swept parameter value; XLabel names it.
	X      float64
	XLabel string
	// Value is the measured metric in Unit.
	Value float64
	Unit  string
}

// Result is one reproduced figure or table.
type Result struct {
	ID    string
	Title string
	Notes string
	Rows  []Row
}

// Add appends a row.
func (r *Result) Add(series string, x float64, xLabel string, value float64, unit string) {
	r.Rows = append(r.Rows, Row{Series: series, X: x, XLabel: xLabel, Value: value, Unit: unit})
}

// Print renders the result as an aligned text table grouped by series.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(w, "   %s\n", r.Notes)
	}
	series := map[string][]Row{}
	var order []string
	for _, row := range r.Rows {
		if _, ok := series[row.Series]; !ok {
			order = append(order, row.Series)
		}
		series[row.Series] = append(series[row.Series], row)
	}
	for _, s := range order {
		rows := series[s]
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].X < rows[j].X })
		fmt.Fprintf(w, "  series %-28s\n", s)
		for _, row := range rows {
			fmt.Fprintf(w, "    %-22s %12.2f %s\n", row.XLabel, row.Value, row.Unit)
		}
	}
	fmt.Fprintln(w)
}

// Options scale every experiment. Scale 1.0 is the default laptop scale;
// benchmarks use smaller scales to stay fast.
type Options struct {
	// Scale multiplies data volumes and sweep extents (default 1.0).
	Scale float64
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// scaleInt scales n, keeping a floor of 1.
func (o Options) scaleInt(n int) int {
	v := int(float64(n) * o.scale())
	if v < 1 {
		return 1
	}
	return v
}

// scaleU64 scales n, keeping a floor of lo.
func (o Options) scaleU64(n, lo uint64) uint64 {
	v := uint64(float64(n) * o.scale())
	if v < lo {
		return lo
	}
	return v
}

// Testbed fabric profile: a late-2000s cluster with ~GbE NICs (100 MB/s),
// 100 µs one-way latency, and a small per-message service cost. These are
// the contention terms that generate the paper's throughput shapes.
const (
	nicBandwidth = 100e6 // bytes/sec per NIC
	netLatency   = 100 * time.Microsecond
	perMessage   = 30 * time.Microsecond
)

func testbedFabric() *netsim.Fabric {
	return netsim.NewFabric(netsim.Config{
		BandwidthBps: nicBandwidth,
		Latency:      netLatency,
		PerMessage:   perMessage,
		// Finite transmit queues: pushing traffic at a degraded node
		// fails instead of queueing unboundedly into simulated time.
		MaxBacklog: 2 * time.Second,
	})
}

// startCluster deploys a shaped testbed. Liveness detection is generous:
// host-side CPU bursts (hundreds of simulated endpoints in one process)
// must not spuriously age out providers. E11, which studies failure
// detection itself, configures its own tighter timeouts.
func startCluster(dataProviders, metaProviders int) (*cluster.Cluster, error) {
	return cluster.Start(cluster.Config{
		DataProviders:    dataProviders,
		MetaProviders:    metaProviders,
		Fabric:           testbedFabric(),
		CallTimeout:      120 * time.Second,
		HeartbeatTimeout: 30 * time.Second,
		// BENCH_METRICS=1 turns the full observability plane on (RPC
		// observers + all collectors, no HTTP), so the observer hot-path
		// overhead is measurable on the unchanged experiment code.
		Metrics: os.Getenv("BENCH_METRICS") == "1",
	})
}

// mbps converts a byte count over a duration to MB/s.
func mbps(bytes uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
