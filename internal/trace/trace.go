// Package trace is the hand-rolled distributed-tracing plane: a compact
// trace context (trace id, parent span id, sampling bit) rides every RPC
// frame, each role records finished spans into a lock-free per-process
// ring buffer, and a tail-based flight recorder force-retains any op
// slower than a per-method threshold regardless of the sampling verdict.
// Zero dependencies, same spirit as internal/metrics: the hot path is a
// couple of atomic stores and clock reads, all rendering happens at
// dump time.
//
// Lifecycle: a root span is started at an operation origin (core client
// op, blaster op, or a background-plane RPC), drawing the head-based
// 1/N sampling verdict once; every downstream hop derives a child span
// from the context and inherits the verdict. Trace ids travel on the
// wire even for unsampled ops, so a hop that trips its slow threshold
// is still retained and stitchable — the "always-record + client-side
// stitch" flight-recorder scheme.
package trace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// SpanContext is what propagates: which trace this work belongs to,
// which span is the immediate parent, and whether the head-based
// sampler kept the trace.
type SpanContext struct {
	Trace   uint64
	Span    uint64
	Sampled bool
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

type ctxKey struct{}

// NewContext returns ctx carrying sc.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context from ctx, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// ID formats a trace or span id the way every surface prints it.
func ID(v uint64) string { return fmt.Sprintf("%016x", v) }

// ParseID parses the hex form produced by ID (with or without leading
// zeros).
func ParseID(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return v, nil
}

func newID() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// Span is one finished unit of work as recorded on a role's ring.
// Start is unix microseconds; Dur is microseconds.
type Span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"span"`
	Parent  uint64 `json:"parent,omitempty"`
	Role    string `json:"role"`
	Node    string `json:"node,omitempty"`
	Method  string `json:"method"`
	Start   int64  `json:"start_us"`
	Dur     int64  `json:"dur_us"`
	Bytes   int64  `json:"bytes,omitempty"`
	Err     string `json:"err,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
	Slow    bool   `json:"slow,omitempty"`
}

// ring is a fixed-size lock-free overwrite buffer: writers claim a slot
// with one atomic increment and publish the span with one atomic
// pointer store; readers snapshot whatever is published. Overwrites
// simply drop the oldest spans — exactly what a flight recorder wants.
type ring struct {
	slots []atomic.Pointer[Span]
	cur   atomic.Uint64
}

func newRing(size int) *ring {
	return &ring{slots: make([]atomic.Pointer[Span], size)}
}

func (r *ring) add(s *Span) {
	i := r.cur.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(s)
}

func (r *ring) snapshot() []*Span {
	out := make([]*Span, 0, len(r.slots))
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Recorder holds one process's finished spans in two rings: recent
// (head-sampled spans) and slow (anything that tripped its per-method
// threshold, sampled or not). A span may appear in both.
type Recorder struct {
	recent *ring
	slow   *ring
	total  atomic.Int64
}

// Ring size defaults: recent is sized for a few seconds of sampled
// traffic, slow for the rare tail.
const (
	DefaultRecentSpans = 4096
	DefaultSlowSpans   = 1024
)

// NewRecorder creates a recorder; non-positive sizes take the defaults.
func NewRecorder(recentSize, slowSize int) *Recorder {
	if recentSize <= 0 {
		recentSize = DefaultRecentSpans
	}
	if slowSize <= 0 {
		slowSize = DefaultSlowSpans
	}
	return &Recorder{recent: newRing(recentSize), slow: newRing(slowSize)}
}

// Add records a finished span. Spans with the Sampled verdict land on
// the recent ring; spans flagged Slow land on the slow ring (and on
// both when both hold). Spans with neither are dropped — the caller
// normally filters, but Add is safe either way.
func (r *Recorder) Add(s *Span) {
	if r == nil || s == nil {
		return
	}
	kept := false
	if s.Sampled {
		r.recent.add(s)
		kept = true
	}
	if s.Slow {
		r.slow.add(s)
		kept = true
	}
	if kept {
		r.total.Add(1)
	}
}

// Total returns how many spans have been recorded since start
// (including ones since overwritten).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Spans returns the published spans, deduplicated across the two rings
// and sorted by start time. traceID filters to one trace when nonzero;
// slowOnly restricts to the slow ring.
func (r *Recorder) Spans(traceID uint64, slowOnly bool) []*Span {
	if r == nil {
		return nil
	}
	var raw []*Span
	if slowOnly {
		raw = r.slow.snapshot()
	} else {
		raw = append(r.recent.snapshot(), r.slow.snapshot()...)
	}
	type spanKey struct{ trace, id uint64 }
	seen := make(map[spanKey]bool, len(raw))
	out := make([]*Span, 0, len(raw))
	for _, s := range raw {
		if traceID != 0 && s.Trace != traceID {
			continue
		}
		k := spanKey{s.Trace, s.ID}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Tracer hands out spans for one role instance. All methods are
// nil-receiver safe, so call sites never guard. A Tracer with sample
// cap N keeps 1 in N root traces (1 = keep all); the flight recorder
// retains slow spans regardless.
type Tracer struct {
	role    string
	node    string
	rec     *Recorder
	sampleN uint64
	slowDef time.Duration
	slowBy  map[string]time.Duration // set before concurrent use
}

// New creates a tracer recording into rec. sampleN is the head-sampling
// denominator (1 = always sample, <=0 disables the tracer — New
// returns nil so all call sites no-op). slowDefault is the per-method
// slow threshold when no override is set (<=0 disables the flight
// recorder).
func New(role, node string, rec *Recorder, sampleN int, slowDefault time.Duration) *Tracer {
	if sampleN <= 0 || rec == nil {
		return nil
	}
	return &Tracer{
		role:    role,
		node:    node,
		rec:     rec,
		sampleN: uint64(sampleN),
		slowDef: slowDefault,
		slowBy:  make(map[string]time.Duration),
	}
}

// SetSlowThreshold overrides the flight-recorder threshold for one
// method. Not safe concurrently with active spans — configure at
// construction time.
func (t *Tracer) SetSlowThreshold(method string, d time.Duration) {
	if t == nil {
		return
	}
	t.slowBy[method] = d
}

// SlowThreshold reports the effective flight-recorder threshold for a
// method (0 = flight recorder off for it).
func (t *Tracer) SlowThreshold(method string) time.Duration {
	if t == nil {
		return 0
	}
	if d, ok := t.slowBy[method]; ok {
		return d
	}
	return t.slowDef
}

// Recorder exposes the tracer's recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *Tracer) sampled() bool {
	if t.sampleN <= 1 {
		return true
	}
	return rand.Uint64N(t.sampleN) == 0
}

// Active is an in-flight span. Zero-cost to carry around; Finish
// publishes it (or drops it, if neither sampled nor slow).
type Active struct {
	t     *Tracer
	span  Span
	start time.Time
}

// StartOp starts a span for a locally originated operation: a child of
// the context's trace when one is present, a fresh root (with its own
// sampling draw) otherwise. The returned context carries the new span
// as parent for downstream hops.
func (t *Tracer) StartOp(ctx context.Context, method string) (context.Context, *Active) {
	if t == nil {
		return ctx, nil
	}
	if sc, ok := FromContext(ctx); ok {
		a := t.startChild(sc, method)
		return NewContext(ctx, a.Context()), a
	}
	a := t.startRoot(method)
	return NewContext(ctx, a.Context()), a
}

// startRoot starts a root span with a fresh trace id and sampling draw.
func (t *Tracer) startRoot(method string) *Active {
	if t == nil {
		return nil
	}
	return &Active{
		t: t,
		span: Span{
			Trace:   newID(),
			ID:      newID(),
			Role:    t.role,
			Node:    t.node,
			Method:  method,
			Sampled: t.sampled(),
		},
		start: time.Now(),
	}
}

// StartRemote starts a span parented on a context received from the
// wire — the server side of an RPC. A frame with no trace context (an
// unsampled caller, or a legacy peer) still gets a local unsampled
// root, so the flight recorder retains the op if it trips the slow
// threshold; head sampling stays the caller's decision, so such spans
// never publish to the recent ring.
func (t *Tracer) StartRemote(sc SpanContext, method string) *Active {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		a := t.startRoot(method)
		a.span.Sampled = false
		return a
	}
	return t.startChild(sc, method)
}

func (t *Tracer) startChild(sc SpanContext, method string) *Active {
	return &Active{
		t: t,
		span: Span{
			Trace:   sc.Trace,
			ID:      newID(),
			Parent:  sc.Span,
			Role:    t.role,
			Node:    t.node,
			Method:  method,
			Sampled: sc.Sampled,
		},
		start: time.Now(),
	}
}

// Context returns the span context downstream hops should carry: this
// span as parent.
func (a *Active) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID, Sampled: a.span.Sampled}
}

// TraceID returns the trace id (0 for a nil span).
func (a *Active) TraceID() uint64 {
	if a == nil {
		return 0
	}
	return a.span.Trace
}

// Sampled reports the head-sampling verdict.
func (a *Active) Sampled() bool { return a != nil && a.span.Sampled }

// SetBytes attaches a payload size to the span.
func (a *Active) SetBytes(n int64) {
	if a != nil {
		a.span.Bytes = n
	}
}

// Finish stamps duration and error, applies the flight-recorder
// threshold, and publishes the span if it is sampled or slow.
func (a *Active) Finish(err error) {
	if a == nil {
		return
	}
	dur := time.Since(a.start)
	a.span.Start = a.start.UnixMicro()
	a.span.Dur = dur.Microseconds()
	if err != nil {
		a.span.Err = err.Error()
	}
	if thr := a.t.SlowThreshold(a.span.Method); thr > 0 && dur >= thr {
		a.span.Slow = true
	}
	if a.span.Sampled || a.span.Slow {
		s := a.span // copy: Active may be on the stack of a pooled goroutine
		a.t.rec.Add(&s)
	}
}
