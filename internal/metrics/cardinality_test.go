package metrics

import (
	"fmt"
	"strings"
	"testing"
)

func TestExemplarRecordedAndRendered(t *testing.T) {
	hv := NewHistogramVec("lat", "latency", []string{"method"}, []float64{0.01, 0.1})
	h := hv.With("get")
	h.ObserveWithExemplar(0.05, 0xabc)
	h.ObserveWithExemplar(0.02, 0)    // zero trace id: counted, no exemplar
	h.ObserveWithExemplar(0.5, 0xdef) // +Inf bucket

	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}

	reg := NewRegistry()
	reg.MustRegister(hv)

	var off strings.Builder
	if err := reg.WritePrometheus(&off); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off.String(), "trace_id") {
		t.Fatal("exemplars rendered without opt-in")
	}

	reg.SetExemplars(true)
	var on strings.Builder
	if err := reg.WritePrometheus(&on); err != nil {
		t.Fatal(err)
	}
	got := on.String()
	wantLine := fmt.Sprintf(`lat_bucket{method="get",le="0.1"} 2 # {trace_id="%016x"} 0.05`, uint64(0xabc))
	if !strings.Contains(got, wantLine) {
		t.Fatalf("exemplar syntax missing; want %q in:\n%s", wantLine, got)
	}
	if !strings.Contains(got, fmt.Sprintf(`le="+Inf"} 3 # {trace_id="%016x"} 0.5`, uint64(0xdef))) {
		t.Fatalf("+Inf exemplar missing:\n%s", got)
	}
}

func TestExemplarLatestWinsPerBucket(t *testing.T) {
	hv := NewHistogramVec("lat", "latency", []string{"method"}, []float64{1})
	h := hv.With("get")
	h.ObserveWithExemplar(0.5, 1)
	h.ObserveWithExemplar(0.6, 2)
	reg := NewRegistry()
	reg.MustRegister(hv)
	reg.SetExemplars(true)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`lat_bucket{method="get",le="1"} 2 # {trace_id="%016x"} 0.6`, uint64(2))
	if !strings.Contains(b.String(), want) {
		t.Fatalf("latest exemplar should win; want %q in:\n%s", want, b.String())
	}
}

// TestVecCardinalityCap fills a counter vector to DefaultMaxLabelChildren
// distinct series; past that, new label values share one _overflow child
// and are counted as dropped, while existing children are untouched.
func TestVecCardinalityCap(t *testing.T) {
	cv := NewCounterVec("reqs", "requests", []string{"peer"})
	for i := 0; i < DefaultMaxLabelChildren; i++ {
		cv.With(fmt.Sprintf("p%d", i)).Add(1)
	}
	if got := cv.DroppedLabels(); got != 0 {
		t.Fatalf("DroppedLabels = %d at the cap, want 0", got)
	}
	cv.With("c").Add(4)  // over the cap: diverted
	cv.With("d").Add(8)  // diverted into the same overflow child
	cv.With("p0").Add(1) // existing child: not affected by the cap

	if got := cv.DroppedLabels(); got != 2 {
		t.Fatalf("DroppedLabels = %d, want 2", got)
	}
	if got := cv.With("p0").Load(); got != 2 {
		t.Fatalf("existing child = %d, want 2", got)
	}
	if got := cv.With("c").Load(); got != 12 {
		t.Fatalf("overflow child = %d, want 12 (4+8 shared)", got)
	}

	reg := NewRegistry()
	reg.MustRegister(cv)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `reqs{peer="_overflow"} 12`) {
		t.Fatal("overflow series missing")
	}
	if !strings.Contains(got, `blobseer_metrics_dropped_labels_total{vec="reqs"} 3`) {
		t.Fatal("dropped-labels accounting missing")
	}
	if n := strings.Count(got, "\nreqs{"); n != DefaultMaxLabelChildren+1 {
		t.Fatalf("rendered %d reqs series, want %d children + overflow", n, DefaultMaxLabelChildren)
	}
}

// TestHistogramVecCap is the histogram twin: past the cap, observations
// for new label values land in one shared _overflow histogram.
func TestHistogramVecCap(t *testing.T) {
	hv := NewHistogramVec("h", "hist", []string{"k"}, []float64{1})
	for i := 0; i < DefaultMaxLabelChildren; i++ {
		hv.With(fmt.Sprintf("k%d", i)).Observe(0.5)
	}
	hv.With("y").Observe(0.5)
	hv.With("z").Observe(0.5)
	if hv.DroppedLabels() != 2 {
		t.Fatalf("hist dropped = %d", hv.DroppedLabels())
	}
	if hv.With("y").Count() != 2 {
		t.Fatal("hist overflow child not shared")
	}
	if hv.With("k0").Count() != 1 {
		t.Fatal("existing hist child affected by the cap")
	}
}

func TestDefaultCapIsGenerous(t *testing.T) {
	cv := NewCounterVec("c", "counter", []string{"k"})
	for i := 0; i < 100; i++ {
		cv.With(fmt.Sprintf("k%d", i)).Add(1)
	}
	if cv.DroppedLabels() != 0 {
		t.Fatalf("default cap tripped at 100 children: %d dropped", cv.DroppedLabels())
	}
}
