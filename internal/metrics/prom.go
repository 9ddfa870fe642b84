// Prometheus-style instruments and text exposition, hand-rolled on the
// stdlib so the observability plane adds no module requirements. The hot
// paths (Counter.Add, Gauge.Set, Histogram.Observe) are lock-free; only
// vector child creation and exposition rendering take locks.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gauge is a concurrency-safe float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous. The implicit +Inf bucket is not
// included.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets covers RPC latencies from 100µs to ~13s in factor-2
// steps — the range a loopback chunk transfer through a loaded disk-backed
// provider actually spans.
var DefLatencyBuckets = ExpBuckets(100e-6, 2, 18)

// BlasterLatencyBuckets is a finer grid (factor 1.5 from 50µs) for the
// load blaster, where p999 interpolation error matters more than memory.
var BlasterLatencyBuckets = ExpBuckets(50e-6, 1.5, 32)

// Exemplar pins a concrete observation — and the trace that produced it
// — to a histogram bucket, so a bad p999 links straight to a stitchable
// trace id. Kept per bucket, latest wins.
type Exemplar struct {
	Value   float64
	TraceID uint64
	Unix    int64 // seconds
}

// Histogram is a fixed-bucket histogram with a lock-free Observe: bucket
// counts, the total count and the sum are all atomics. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; last is +Inf
	count     atomic.Int64
	sum       Gauge
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1, aligned with counts
}

// NewHistogram creates a histogram over the given ascending upper bounds
// (DefLatencyBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveWithExemplar is Observe additionally pinning the observation's
// trace id as the containing bucket's exemplar (latest wins; a zero
// trace id records nothing extra).
func (h *Histogram) ObserveWithExemplar(v float64, traceID uint64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Unix: time.Now().Unix()})
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Cumulative returns the per-bucket cumulative counts aligned with
// Bounds(), plus the +Inf total as the final element.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Bounds returns the finite upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the containing bucket. Samples in the +Inf bucket
// report the highest finite bound (an underestimate, flagged by the
// caller comparing against Count). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name="value" pair on a metric series.
type Label struct {
	Name, Value string
}

// Sample is one exposed series value. Suffix distinguishes histogram
// series (_bucket/_sum/_count); plain metrics leave it empty. Exemplar,
// when set on a bucket sample, is rendered in OpenMetrics exemplar
// syntax if the registry opted in.
type Sample struct {
	Suffix   string
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// Family describes one metric family in the exposition.
type Family struct {
	Name string
	Help string
	Type string // "counter" | "gauge" | "histogram"
}

// Collector exposes one metric family's current samples.
type Collector interface {
	Family() Family
	Collect(emit func(Sample))
}

// Registry renders registered collectors in Prometheus text format.
// Several collectors may share a family name (per-instance registrations
// of one family) as long as their help and type agree; their samples are
// merged under a single header.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	families   map[string]Family
	exemplars  bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]Family)}
}

// SetExemplars opts the exposition into OpenMetrics exemplar syntax on
// bucket series (`... # {trace_id="…"} value ts`). Off by default:
// strict Prometheus text-format parsers reject the suffix.
func (r *Registry) SetExemplars(on bool) {
	r.mu.Lock()
	r.exemplars = on
	r.mu.Unlock()
}

// MustRegister adds collectors, panicking when a family name is reused
// with a different type or help (a programming error, like a duplicate
// RPC handler).
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		f := c.Family()
		if prev, ok := r.families[f.Name]; ok && (prev.Type != f.Type || prev.Help != f.Help) {
			panic(fmt.Sprintf("metrics: family %q re-registered with conflicting type/help", f.Name))
		}
		r.families[f.Name] = f
		r.collectors = append(r.collectors, c)
	}
}

// WritePrometheus renders every registered family, sorted by name, in
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	byName := make(map[string][]Collector, len(r.families))
	names := make([]string, 0, len(r.families))
	fams := make(map[string]Family, len(r.families))
	for _, c := range r.collectors {
		n := c.Family().Name
		if _, ok := byName[n]; !ok {
			names = append(names, n)
			fams[n] = r.families[n]
		}
		byName[n] = append(byName[n], c)
	}
	showExemplars := r.exemplars
	r.mu.Unlock()

	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		// Collectors emit deterministically (vecs walk children in sorted
		// key order, buckets ascending), so rendering preserves emission
		// order rather than re-sorting — a lexical sort would misplace the
		// +Inf bucket.
		for _, c := range byName[name] {
			c.Collect(func(s Sample) {
				b.WriteString(renderSample(f.Name, s))
				if showExemplars && s.Exemplar != nil {
					b.WriteString(renderExemplar(s.Exemplar))
				}
				b.WriteByte('\n')
			})
		}
	}
	r.writeDroppedLabels(&b, byName, names)
	_, err := io.WriteString(w, b.String())
	return err
}

// droppedLabelsCollector is the Vec-side contract behind the built-in
// cardinality accounting: any registered collector reporting how many
// series creations its child cap diverted.
type droppedLabelsCollector interface {
	DroppedLabels() int64
}

// writeDroppedLabels renders the built-in
// blobseer_metrics_dropped_labels_total family: one series per
// cap-guarded vector family, summed across same-family registrations,
// so an exploding label shows up on the dashboard before it shows up
// as process RSS.
func (r *Registry) writeDroppedLabels(b *strings.Builder, byName map[string][]Collector, names []string) {
	type entry struct {
		fam   string
		total int64
	}
	var entries []entry
	for _, name := range names {
		sum := int64(0)
		guarded := false
		for _, c := range byName[name] {
			if d, ok := c.(droppedLabelsCollector); ok {
				guarded = true
				sum += d.DroppedLabels()
			}
		}
		if guarded {
			entries = append(entries, entry{fam: name, total: sum})
		}
	}
	if len(entries) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s Series creations diverted to the _overflow child by a vector's label-cardinality cap.\n", droppedLabelsName)
	fmt.Fprintf(b, "# TYPE %s counter\n", droppedLabelsName)
	for _, e := range entries {
		b.WriteString(renderSample(droppedLabelsName, Sample{
			Labels: []Label{{Name: "vec", Value: e.fam}},
			Value:  float64(e.total),
		}))
		b.WriteByte('\n')
	}
}

// droppedLabelsName is the built-in family name for cardinality-cap
// accounting.
const droppedLabelsName = "blobseer_metrics_dropped_labels_total"

// renderExemplar renders the OpenMetrics exemplar suffix for a bucket
// line: ` # {trace_id="…"} value ts`.
func renderExemplar(e *Exemplar) string {
	var b strings.Builder
	b.WriteString(` # {trace_id="`)
	fmt.Fprintf(&b, "%016x", e.TraceID)
	b.WriteString(`"} `)
	b.WriteString(formatValue(e.Value))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(e.Unix, 10))
	return b.String()
}

func renderSample(name string, s Sample) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(s.Suffix)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// funcCollector adapts a snapshot function into a single-series family.
type funcCollector struct {
	fam    Family
	labels []Label
	fn     func() float64
}

func (c *funcCollector) Family() Family { return c.fam }
func (c *funcCollector) Collect(emit func(Sample)) {
	emit(Sample{Labels: c.labels, Value: c.fn()})
}

// CounterFunc exposes fn as a labeled counter series. The natural adapter
// for the snapshot-style stats the planes already keep (meta.RPCStats,
// core.IOStats, WAL LogStats, GC/repair/lease totals).
func CounterFunc(name, help string, labels []Label, fn func() float64) Collector {
	return &funcCollector{fam: Family{Name: name, Help: help, Type: "counter"}, labels: labels, fn: fn}
}

// GaugeFunc exposes fn as a labeled gauge series.
func GaugeFunc(name, help string, labels []Label, fn func() float64) Collector {
	return &funcCollector{fam: Family{Name: name, Help: help, Type: "gauge"}, labels: labels, fn: fn}
}

// labelKey joins label values into a map key (0x1f cannot appear in a
// label value that matters for uniqueness here).
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// sortedKeys returns the map's keys in sorted order, so exposition output
// is deterministic.
func sortedKeys[T any](m map[string]*T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func zipLabels(names, values []string) []Label {
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Name: names[i], Value: values[i]}
	}
	return out
}

// DefaultMaxLabelChildren caps how many distinct label-value
// combinations one vector may materialize. Every label in this system
// is meant to be low-cardinality ({role, method}); the cap is the
// backstop that keeps a label that ever grows user-controlled (a blob
// name, a peer address) from eating the process. Past the cap, new
// combinations share a single child labeled "_overflow" and the
// diversion is counted in blobseer_metrics_dropped_labels_total.
const DefaultMaxLabelChildren = 1024

// overflowLabel marks the shared child that absorbs series past the cap.
const overflowLabel = "_overflow"

func overflowLabels(names []string) []Label {
	out := make([]Label, len(names))
	for i, n := range names {
		out[i] = Label{Name: n, Value: overflowLabel}
	}
	return out
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	fam   Family
	names []string

	mu       sync.RWMutex
	children map[string]*counterChild
	overflow *counterChild
	dropped  atomic.Int64
}

type counterChild struct {
	labels []Label
	c      Counter
}

// NewCounterVec creates a counter family with the given label names.
func NewCounterVec(name, help string, labelNames []string) *CounterVec {
	return &CounterVec{
		fam:      Family{Name: name, Help: help, Type: "counter"},
		names:    labelNames,
		children: make(map[string]*counterChild),
	}
}

// With returns the counter for the given label values (created on first
// use). len(values) must equal the label name count.
func (v *CounterVec) With(values ...string) *Counter {
	key := labelKey(values)
	v.mu.RLock()
	ch, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return &ch.c
	}
	if len(values) != len(v.names) {
		panic(fmt.Sprintf("metrics: %s wants %d labels, got %d", v.fam.Name, len(v.names), len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch, ok = v.children[key]; !ok {
		if len(v.children) >= DefaultMaxLabelChildren {
			v.dropped.Add(1)
			if v.overflow == nil {
				v.overflow = &counterChild{labels: overflowLabels(v.names)}
			}
			return &v.overflow.c
		}
		ch = &counterChild{labels: zipLabels(v.names, values)}
		v.children[key] = ch
	}
	return &ch.c
}

// DroppedLabels reports how many series creations the cap diverted.
func (v *CounterVec) DroppedLabels() int64 { return v.dropped.Load() }

// Family implements Collector.
func (v *CounterVec) Family() Family { return v.fam }

// Collect implements Collector.
func (v *CounterVec) Collect(emit func(Sample)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, key := range sortedKeys(v.children) {
		ch := v.children[key]
		emit(Sample{Labels: ch.labels, Value: float64(ch.c.Load())})
	}
	if v.overflow != nil {
		emit(Sample{Labels: v.overflow.labels, Value: float64(v.overflow.c.Load())})
	}
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	fam    Family
	names  []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*histChild
	overflow *histChild
	dropped  atomic.Int64
}

type histChild struct {
	labels []Label
	h      *Histogram
}

// NewHistogramVec creates a histogram family with the given label names
// and bucket bounds (DefLatencyBuckets when nil).
func NewHistogramVec(name, help string, labelNames []string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{
		fam:      Family{Name: name, Help: help, Type: "histogram"},
		names:    labelNames,
		bounds:   bounds,
		children: make(map[string]*histChild),
	}
}

// With returns the histogram for the given label values (created on
// first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	key := labelKey(values)
	v.mu.RLock()
	ch, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return ch.h
	}
	if len(values) != len(v.names) {
		panic(fmt.Sprintf("metrics: %s wants %d labels, got %d", v.fam.Name, len(v.names), len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch, ok = v.children[key]; !ok {
		if len(v.children) >= DefaultMaxLabelChildren {
			v.dropped.Add(1)
			if v.overflow == nil {
				v.overflow = &histChild{labels: overflowLabels(v.names), h: NewHistogram(v.bounds)}
			}
			return v.overflow.h
		}
		ch = &histChild{labels: zipLabels(v.names, values), h: NewHistogram(v.bounds)}
		v.children[key] = ch
	}
	return ch.h
}

// DroppedLabels reports how many series creations the cap diverted.
func (v *HistogramVec) DroppedLabels() int64 { return v.dropped.Load() }

// Family implements Collector.
func (v *HistogramVec) Family() Family { return v.fam }

// Collect implements Collector.
func (v *HistogramVec) Collect(emit func(Sample)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, key := range sortedKeys(v.children) {
		emitHistogram(v.children[key], emit)
	}
	if v.overflow != nil {
		emitHistogram(v.overflow, emit)
	}
}

func emitHistogram(ch *histChild, emit func(Sample)) {
	cum := ch.h.Cumulative()
	for i, bound := range ch.h.Bounds() {
		emit(Sample{
			Suffix:   "_bucket",
			Labels:   append(append([]Label(nil), ch.labels...), Label{Name: "le", Value: formatValue(bound)}),
			Value:    float64(cum[i]),
			Exemplar: ch.h.exemplars[i].Load(),
		})
	}
	emit(Sample{
		Suffix:   "_bucket",
		Labels:   append(append([]Label(nil), ch.labels...), Label{Name: "le", Value: "+Inf"}),
		Value:    float64(cum[len(cum)-1]),
		Exemplar: ch.h.exemplars[len(cum)-1].Load(),
	})
	emit(Sample{Suffix: "_sum", Labels: ch.labels, Value: ch.h.Sum()})
	emit(Sample{Suffix: "_count", Labels: ch.labels, Value: float64(ch.h.Count())})
}
