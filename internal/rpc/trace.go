package rpc

import (
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Trace context crosses the wire as a fixed-size trailer appended after
// the request payload: [u8 version][u64 trace][u64 span][u8 flags].
// Both request and response decoders ignore trailing bytes they do not
// understand, so old peers simply never see the trailer and new peers
// decode old frames as trace-free — version tolerance in both
// directions without a frame-format bump.
const (
	traceTrailerVer = 1
	traceTrailerLen = 1 + 8 + 8 + 1

	traceFlagSampled = 1 << 0
)

// appendTraceTrailer encodes sc after the payload; no-op for an invalid
// (trace-free) context, keeping old-format frames byte-identical.
func appendTraceTrailer(enc *wire.Encoder, sc trace.SpanContext) {
	if !sc.Valid() {
		return
	}
	enc.PutU8(traceTrailerVer)
	enc.PutU64(sc.Trace)
	enc.PutU64(sc.Span)
	var flags uint8
	if sc.Sampled {
		flags |= traceFlagSampled
	}
	enc.PutU8(flags)
}

// decodeTraceTrailer consumes a trace trailer from what remains of a
// validated request frame. Frames without one — too short, or an
// unknown leading version byte — yield the zero context.
func decodeTraceTrailer(dec *wire.Decoder) trace.SpanContext {
	if dec.Remaining() < traceTrailerLen {
		return trace.SpanContext{}
	}
	if dec.U8() != traceTrailerVer {
		return trace.SpanContext{}
	}
	sc := trace.SpanContext{Trace: dec.U64(), Span: dec.U64()}
	sc.Sampled = dec.U8()&traceFlagSampled != 0
	if dec.Err() != nil {
		return trace.SpanContext{}
	}
	return sc
}

// TracedServerObserver is an optional ServerObserver refinement: when a
// dispatched request carries a sampled trace, the server reports the
// trace id alongside the usual observation so the metrics plane can
// attach exemplars to its histograms.
type TracedServerObserver interface {
	ServerObserver
	ObserveRequestTraced(method string, bytesIn, bytesOut int, dur time.Duration, err error, panicked bool, traceID uint64)
}

// SetTracer attaches t to the server (nil detaches): every inbound
// request carrying a trace context gets a server-side span on t's
// recorder. Safe before or after Start.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// SetTracer attaches t to the client (nil detaches): calls made under a
// traced context get a client-side RPC span, and the context rides the
// request frame to the server.
func (c *Client) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	c.tracer = t
	c.mu.Unlock()
}

// Tracer returns the attached tracer (nil when detached). Background
// loops open each iteration's root span through it — a maintenance pass,
// one expired lease's weave, one HA ship or probe round — and pass that
// span's context to every call the iteration makes.
func (c *Client) Tracer() *trace.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}
