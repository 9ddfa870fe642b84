package metrics

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition byte-for-byte: family
// ordering, HELP/TYPE lines, label escaping, histogram bucket cumulation
// and the +Inf terminal bucket. Regenerate with `go test -run Golden
// -update ./internal/metrics/` after an intentional format change.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()

	cv := NewCounterVec("blobseer_rpc_server_errors_total",
		"RPC requests answered with a status-error frame.", []string{"role", "method"})
	cv.With("vmanager", "vm.assign").Add(3)
	cv.With("provider", "prov.get").Add(1)

	fullness := func(provider string, v float64) Collector {
		return GaugeFunc("blobseer_pm_provider_fullness", "Fullness fraction of each registered provider.",
			[]Label{{Name: "provider", Value: provider}}, func() float64 { return v })
	}

	hv := NewHistogramVec("blobseer_rpc_server_request_seconds",
		"Server-side request latency.", []string{"role", "method"},
		[]float64{0.001, 0.01, 0.1, 1})
	h := hv.With("meta", "meta.get")
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 2} {
		h.Observe(v)
	}

	reg.MustRegister(cv, fullness("p0", 0.25), fullness(`weird"label\n`, 1), hv,
		GaugeFunc("blobseer_up", "Whether this process is serving.", nil, func() float64 { return 1 }),
		CounterFunc("blobseer_wal_appends_total", "WAL record appends.",
			[]Label{{Name: "instance", Value: "vmanager"}}, func() float64 { return 42 }))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; under
// -race this doubles as the lock-freedom proof, and the final count/sum
// must balance exactly (no lost updates).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()

	const n = goroutines * perG
	if h.Count() != n {
		t.Fatalf("count: got %d want %d", h.Count(), n)
	}
	wantSum := float64(n) * float64(n-1) / 2 * 1e-6
	if math.Abs(h.Sum()-wantSum) > wantSum*1e-9 {
		t.Fatalf("sum: got %g want %g", h.Sum(), wantSum)
	}
	cum := h.Cumulative()
	if cum[len(cum)-1] != n {
		t.Fatalf("+Inf bucket: got %d want %d", cum[len(cum)-1], n)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket cumulation not monotone at %d: %v", i, cum)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for v := 0.5; v <= 8; v += 0.5 {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q < 1 || q > 8 {
		t.Fatalf("p50 out of range: %g", q)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 > p99 {
		t.Fatalf("quantiles not monotone: p50=%g p99=%g", p50, p99)
	}
	if h2 := NewHistogram([]float64{1}); h2.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile: want 0, got %g", h2.Quantile(0.5))
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 4000 {
		t.Fatalf("gauge add lost updates: got %g want 4000", got)
	}
}

func TestRegistryConflicts(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(NewCounterVec("x_total", "help one", []string{"a"}))

	// Same family, same type+help: allowed (per-instance registration).
	reg.MustRegister(NewCounterVec("x_total", "help one", []string{"a"}))

	defer func() {
		if recover() == nil {
			t.Fatal("conflicting help must panic")
		}
	}()
	reg.MustRegister(NewCounterVec("x_total", "different help", []string{"a"}))
}

func TestVecLabelMismatchPanics(t *testing.T) {
	cv := NewCounterVec("y_total", "h", []string{"a", "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count must panic")
		}
	}()
	cv.With("only-one")
}
