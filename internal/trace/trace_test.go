package trace

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: 42, Span: 7, Sampled: true}
	ctx := NewContext(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v; want %+v, true", got, ok, sc)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("FromContext on empty ctx reported a trace")
	}
	if _, ok := FromContext(nil); ok {
		t.Fatal("FromContext(nil) reported a trace")
	}
}

func TestIDRoundTrip(t *testing.T) {
	for _, v := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		got, err := ParseID(ID(v))
		if err != nil || got != v {
			t.Fatalf("ParseID(ID(%d)) = %d, %v", v, got, err)
		}
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ctx, a := tr.StartOp(context.Background(), "x")
	if a != nil {
		t.Fatal("nil tracer returned an active span")
	}
	if _, ok := FromContext(ctx); ok {
		t.Fatal("nil tracer attached a context")
	}
	a.SetBytes(1)
	a.Finish(nil)
	if tr.startRoot("x") != nil || tr.StartRemote(SpanContext{Trace: 1}, "x") != nil {
		t.Fatal("nil tracer started a span")
	}
	if New("r", "n", NewRecorder(0, 0), 0, 0) != nil {
		t.Fatal("disabled sample rate did not return a nil tracer")
	}
}

func TestChildInheritsTraceAndVerdict(t *testing.T) {
	rec := NewRecorder(16, 16)
	tr := New("client", "c0", rec, 1, 0)
	ctx, root := tr.StartOp(context.Background(), "op.read")
	if root == nil || !root.Sampled() {
		t.Fatal("sample 1/1 root must be sampled")
	}
	_, child := tr.StartOp(ctx, "rpc.call")
	if child.span.Trace != root.span.Trace {
		t.Fatalf("child trace %x != root trace %x", child.span.Trace, root.span.Trace)
	}
	if child.span.Parent != root.span.ID {
		t.Fatalf("child parent %x != root span %x", child.span.Parent, root.span.ID)
	}
	child.Finish(nil)
	root.Finish(errors.New("boom"))
	spans := rec.Spans(root.TraceID(), false)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	var sawErr bool
	for _, s := range spans {
		if s.Err == "boom" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("root error not recorded")
	}
}

func TestRemoteSpanParenting(t *testing.T) {
	rec := NewRecorder(16, 16)
	tr := New("provider", "p1", rec, 1, 0)
	sc := SpanContext{Trace: 99, Span: 5, Sampled: true}
	a := tr.StartRemote(sc, "provider.getchunk")
	if a == nil || a.span.Trace != 99 || a.span.Parent != 5 {
		t.Fatalf("remote span = %+v", a)
	}
	// A trace-free frame still yields a local root for the flight
	// recorder — unsampled, so it publishes only if it turns out slow.
	local := tr.StartRemote(SpanContext{}, "m")
	if local == nil || local.Sampled() || local.span.Parent != 0 {
		t.Fatalf("trace-free remote span = %+v, want unsampled local root", local)
	}
	local.Finish(nil)
	if got := rec.Spans(local.TraceID(), false); len(got) != 0 {
		t.Fatalf("fast unsampled remote span was published: %+v", got[0])
	}
}

// TestFlightRecorderThreshold is the flight-recorder unit: an unsampled
// op below its method threshold is dropped, at/above it is retained on
// the slow ring, and per-method overrides beat the default.
func TestFlightRecorderThreshold(t *testing.T) {
	rec := NewRecorder(16, 16)
	tr := New("vmanager", "vm0", rec, 1<<30, 50*time.Millisecond) // sampling ~never fires
	tr.SetSlowThreshold("fast.method", 1*time.Hour)

	mkSpan := func(method string, dur time.Duration) {
		a := tr.startRoot(method)
		a.span.Sampled = false // force the unsampled path regardless of the draw
		a.start = time.Now().Add(-dur)
		a.Finish(nil)
	}

	mkSpan("vm.commit", 10*time.Millisecond) // under default threshold: dropped
	if got := rec.Spans(0, true); len(got) != 0 {
		t.Fatalf("fast unsampled span retained: %+v", got[0])
	}
	mkSpan("vm.commit", 60*time.Millisecond) // over default: flight-recorded
	slow := rec.Spans(0, true)
	if len(slow) != 1 || !slow[0].Slow || slow[0].Method != "vm.commit" {
		t.Fatalf("slow ring = %+v, want one slow vm.commit", slow)
	}
	mkSpan("fast.method", 60*time.Millisecond) // override says 1h: dropped
	if got := rec.Spans(0, true); len(got) != 1 {
		t.Fatalf("override threshold ignored: %d slow spans", len(got))
	}
	// Slow spans must be visible in the unfiltered dump too.
	if got := rec.Spans(0, false); len(got) != 1 {
		t.Fatalf("slow span missing from full dump: %d", len(got))
	}
}

func TestRecorderFilters(t *testing.T) {
	rec := NewRecorder(8, 8)
	rec.Add(&Span{Trace: 1, ID: 10, Sampled: true, Start: 5})
	rec.Add(&Span{Trace: 1, ID: 11, Sampled: true, Slow: true, Start: 3})
	rec.Add(&Span{Trace: 2, ID: 20, Sampled: true, Start: 1})
	rec.Add(&Span{Trace: 3, ID: 30}) // neither sampled nor slow: dropped

	if got := rec.Spans(1, false); len(got) != 2 || got[0].ID != 11 || got[1].ID != 10 {
		t.Fatalf("trace filter/sort wrong: %+v", got)
	}
	if got := rec.Spans(0, false); len(got) != 3 {
		t.Fatalf("dedup across rings failed: %d spans", len(got))
	}
	if got := rec.Spans(0, true); len(got) != 1 || got[0].ID != 11 {
		t.Fatalf("slowOnly wrong: %+v", got)
	}
	if rec.Total() != 3 {
		t.Fatalf("Total = %d, want 3", rec.Total())
	}
}

func TestRingOverwrite(t *testing.T) {
	rec := NewRecorder(4, 4)
	for i := 1; i <= 10; i++ {
		rec.Add(&Span{Trace: uint64(i), ID: uint64(i), Sampled: true, Start: int64(i)})
	}
	got := rec.Spans(0, false)
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for _, s := range got {
		if s.Trace < 7 {
			t.Fatalf("old span %d survived overwrite", s.Trace)
		}
	}
}

// TestRecorderRaceHammer spins writers recording spans against readers
// snapshotting, and depends on -race for the verdict.
func TestRecorderRaceHammer(t *testing.T) {
	rec := NewRecorder(64, 16)
	tr := New("hammer", "h0", rec, 2, time.Microsecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c2, a := tr.StartOp(ctx, "hammer.op")
				_, child := tr.StartOp(c2, "hammer.child")
				child.SetBytes(int64(i))
				child.Finish(nil)
				a.Finish(nil)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range rec.Spans(0, false) {
					_ = s.Dur
				}
				_ = rec.Spans(0, true)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if rec.Total() == 0 {
		t.Fatal("hammer recorded nothing")
	}
}
