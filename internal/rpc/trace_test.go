package rpc

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// encodeRequestFrame builds a request frame the way clientConn.roundTrip
// does, optionally with the trace trailer.
func encodeRequestFrame(id uint64, method string, payload []byte, sc trace.SpanContext) []byte {
	enc := wire.NewEncoder(0)
	enc.PutU8(kindRequest)
	enc.PutU64(id)
	enc.PutString(method)
	enc.PutBytes(payload)
	appendTraceTrailer(enc, sc)
	return append([]byte(nil), enc.Bytes()...)
}

// decodeRequestFrame mirrors Server.serveConn's decode: header, payload,
// then the optional trailer.
func decodeRequestFrame(t *testing.T, frame []byte) (id uint64, method string, payload []byte, sc trace.SpanContext) {
	t.Helper()
	dec := wire.NewDecoder(frame)
	kind := dec.U8()
	id = dec.U64()
	method = dec.String()
	payload = dec.Bytes()
	if dec.Err() != nil || kind != kindRequest {
		t.Fatalf("frame did not decode as a request: err=%v kind=%d", dec.Err(), kind)
	}
	sc = decodeTraceTrailer(dec)
	return id, method, payload, sc
}

func TestTraceTrailerRoundTrip(t *testing.T) {
	sc := trace.SpanContext{Trace: 0xabcdef, Span: 0x123456, Sampled: true}
	frame := encodeRequestFrame(7, "vm.commit", []byte("payload"), sc)
	id, method, payload, got := decodeRequestFrame(t, frame)
	if id != 7 || method != "vm.commit" || !bytes.Equal(payload, []byte("payload")) {
		t.Fatalf("frame fields: id=%d method=%q payload=%q", id, method, payload)
	}
	if got != sc {
		t.Fatalf("trailer = %+v, want %+v", got, sc)
	}

	// Unsampled contexts keep the trace id but drop the flag.
	sc.Sampled = false
	_, _, _, got = decodeRequestFrame(t, encodeRequestFrame(7, "m", nil, sc))
	if got != sc {
		t.Fatalf("unsampled trailer = %+v, want %+v", got, sc)
	}
}

func TestOldFrameDecodesTraceFree(t *testing.T) {
	// A frame from a peer that predates tracing: no trailer at all.
	frame := encodeRequestFrame(3, "echo", []byte("x"), trace.SpanContext{})
	_, _, payload, sc := decodeRequestFrame(t, frame)
	if sc.Valid() {
		t.Fatalf("trailer-free frame produced a trace: %+v", sc)
	}
	if !bytes.Equal(payload, []byte("x")) {
		t.Fatalf("payload corrupted: %q", payload)
	}
}

func TestNewFrameTolerableByOldDecoder(t *testing.T) {
	// An old server's decode loop reads header+payload and ignores
	// whatever trails — a new client's trailer must not corrupt it.
	sc := trace.SpanContext{Trace: 1, Span: 2, Sampled: true}
	frame := encodeRequestFrame(9, "echo", []byte("body"), sc)
	dec := wire.NewDecoder(frame)
	if kind := dec.U8(); kind != kindRequest {
		t.Fatalf("kind = %d", kind)
	}
	if id := dec.U64(); id != 9 {
		t.Fatalf("id = %d", id)
	}
	if m := dec.String(); m != "echo" {
		t.Fatalf("method = %q", m)
	}
	if p := dec.Bytes(); !bytes.Equal(p, []byte("body")) || dec.Err() != nil {
		t.Fatalf("payload = %q, err = %v", p, dec.Err())
	}
}

func TestUnknownTrailerVersionIgnored(t *testing.T) {
	enc := wire.NewEncoder(0)
	enc.PutU8(kindRequest)
	enc.PutU64(1)
	enc.PutString("m")
	enc.PutBytes([]byte("p"))
	// A future trailer version with the same length: must decode trace-free.
	enc.PutU8(traceTrailerVer + 1)
	enc.PutU64(5)
	enc.PutU64(6)
	enc.PutU8(1)
	_, _, payload, sc := decodeRequestFrame(t, enc.Bytes())
	if sc.Valid() {
		t.Fatalf("unknown trailer version decoded as a trace: %+v", sc)
	}
	if !bytes.Equal(payload, []byte("p")) {
		t.Fatalf("payload corrupted: %q", payload)
	}
}

// FuzzTraceTrailer fuzzes the frame round trip across format versions:
// a new-format frame must round-trip its trace context exactly, an
// old-format frame (or arbitrary trailing junk) must decode trace-free,
// and the payload must survive unharmed either way.
func FuzzTraceTrailer(f *testing.F) {
	f.Add(uint64(1), "vm.commit", []byte("payload"), uint64(7), uint64(8), true, []byte{})
	f.Add(uint64(2), "provider.getchunks", []byte{}, uint64(0), uint64(0), false, []byte{1, 2, 3})
	f.Add(uint64(3), "m", []byte("x"), ^uint64(0), uint64(1), true, []byte{traceTrailerVer})
	f.Fuzz(func(t *testing.T, id uint64, method string, payload []byte, traceID, spanID uint64, sampled bool, junk []byte) {
		sc := trace.SpanContext{Trace: traceID, Span: spanID, Sampled: sampled}

		// New frame → new decoder: exact round trip (when the context is
		// valid; an invalid one encodes nothing and decodes as zero).
		frame := encodeRequestFrame(id, method, payload, sc)
		dec := wire.NewDecoder(frame)
		if dec.U8() != kindRequest || dec.U64() != id || dec.String() != method {
			t.Fatal("header corrupted")
		}
		if !bytes.Equal(dec.Bytes(), payload) || dec.Err() != nil {
			t.Fatal("payload corrupted")
		}
		got := decodeTraceTrailer(dec)
		want := sc
		if !sc.Valid() {
			want = trace.SpanContext{}
		}
		if got != want {
			t.Fatalf("trailer round trip: got %+v want %+v", got, want)
		}

		// Old frame with arbitrary trailing junk (a hypothetical future
		// extension): must never panic, never corrupt the payload, and
		// only yield a trace if the junk happens to be a valid trailer.
		enc := wire.NewEncoder(0)
		enc.PutU8(kindRequest)
		enc.PutU64(id)
		enc.PutString(method)
		enc.PutBytes(payload)
		raw := append(append([]byte(nil), enc.Bytes()...), junk...)
		dec = wire.NewDecoder(raw)
		dec.U8()
		dec.U64()
		_ = dec.String()
		if !bytes.Equal(dec.Bytes(), payload) || dec.Err() != nil {
			t.Fatal("payload corrupted by trailing junk")
		}
		_ = decodeTraceTrailer(dec)
	})
}

// TestTracePropagatesClientToServer drives a real call over the sim
// transport and checks both sides recorded spans under one trace, with
// the server span parented on the client's RPC span.
func TestTracePropagatesClientToServer(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	rec := trace.NewRecorder(64, 64)
	srv.SetTracer(trace.New("provider", "svc", rec, 1, 0))

	cli := NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)
	cliRec := trace.NewRecorder(64, 64)
	cliTr := trace.New("client", "c0", cliRec, 1, 0)
	cli.SetTracer(cliTr)

	ctx, op := cliTr.StartOp(context.Background(), "op.test")
	var resp echoMsg
	if err := cli.CallCtx(ctx, srv.Addr(), "echo", &echoMsg{N: 1, S: "a"}, &resp); err != nil {
		t.Fatalf("CallCtx: %v", err)
	}
	op.Finish(nil)

	traceID := op.TraceID()
	cliSpans := cliRec.Spans(traceID, false)
	if len(cliSpans) != 2 {
		t.Fatalf("client spans = %d, want 2 (op + rpc)", len(cliSpans))
	}
	var rpcSpan *trace.Span
	for _, s := range cliSpans {
		if s.Method == "echo" {
			rpcSpan = s
		}
	}
	if rpcSpan == nil {
		t.Fatal("client rpc span missing")
	}
	srvSpans := rec.Spans(traceID, false)
	if len(srvSpans) != 1 {
		t.Fatalf("server spans = %d, want 1", len(srvSpans))
	}
	s := srvSpans[0]
	if s.Method != "echo" || s.Role != "provider" || s.Parent != rpcSpan.ID {
		t.Fatalf("server span = %+v, want echo parented on %x", s, rpcSpan.ID)
	}
}

// TestUntracedClientAgainstTracedServer: no tracer on the client means
// byte-identical old-format frames; the traced server records nothing.
func TestUntracedClientAgainstTracedServer(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	rec := trace.NewRecorder(64, 64)
	srv.SetTracer(trace.New("provider", "svc", rec, 1, 0))

	cli := NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)
	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{N: 1}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := rec.Spans(0, false); len(got) != 0 {
		t.Fatalf("server invented spans for an untraced call: %+v", got[0])
	}
}
