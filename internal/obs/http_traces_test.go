package obs_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestDebugTracesEndpoint serves a recorder over real HTTP and exercises
// every /debug/traces query shape: the full recent dump, the one-trace
// filter, and the flight-recorder view — plus the pprof gate in both
// positions.
func TestDebugTracesEndpoint(t *testing.T) {
	rec := trace.NewRecorder(0, 0)
	tr := trace.New("provider", "dp0", rec, 1, time.Millisecond)

	_, fast := tr.StartOp(context.Background(), "provider.get")
	fast.Finish(nil)
	_, slow := tr.StartOp(context.Background(), "provider.putchunks")
	time.Sleep(3 * time.Millisecond) // span duration is wall-clock: trips the 1ms threshold
	slow.Finish(nil)

	h, err := obs.ServeHTTP("127.0.0.1:0", obs.HTTPConfig{Traces: rec, Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	base := "http://" + h.Addr()

	get := func(path string) obs.TracesResponse {
		t.Helper()
		res, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, res.StatusCode)
		}
		var out obs.TracesResponse
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return out
	}

	all := get("/debug/traces")
	if all.Total != 2 || len(all.Spans) != 2 {
		t.Fatalf("full dump: total=%d spans=%d, want 2/2", all.Total, len(all.Spans))
	}

	slowOnly := get("/debug/traces?slow=1")
	if len(slowOnly.Spans) != 1 || slowOnly.Spans[0].Method != "provider.putchunks" || !slowOnly.Spans[0].Slow {
		t.Fatalf("flight recorder view = %+v, want just the slow provider.putchunks", slowOnly.Spans)
	}

	id := slowOnly.Spans[0].Trace
	one := get("/debug/traces?trace=" + formatID(id))
	if len(one.Spans) != 1 || one.Spans[0].Trace != id {
		t.Fatalf("trace filter returned %d spans", len(one.Spans))
	}

	if res, err := http.Get(base + "/debug/traces?trace=zzz"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("bad trace id: status %d, want 400", res.StatusCode)
		}
	}

	// pprof mounted when asked for...
	if res, err := http.Get(base + "/debug/pprof/cmdline"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("pprof on: status %d, want 200", res.StatusCode)
		}
	}

	// ...and absent — along with /debug/traces — on a default server.
	plain, err := obs.ServeHTTP("127.0.0.1:0", obs.HTTPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/traces"} {
		res, err := http.Get("http://" + plain.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("default server %s: status %d, want 404", path, res.StatusCode)
		}
	}
}

func formatID(id uint64) string {
	const hex = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hex[id&0xf]
		id >>= 4
	}
	return string(out)
}
