package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// HTTPServer serves a registry over HTTP: GET /metrics renders Prometheus
// text exposition format, GET /healthz is a liveness probe, GET
// /debug/traces dumps the process's span rings as JSON, and (opt-in)
// /debug/pprof exposes the stdlib profiler. One runs next to every
// blobseerd role's RPC listener (and next to the cluster harness when
// Config.MetricsListen is set).
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// HTTPConfig selects what the obs HTTP server exposes.
type HTTPConfig struct {
	// Registry backs /metrics (required).
	Registry *metrics.Registry
	// Traces backs /debug/traces when non-nil.
	Traces *trace.Recorder
	// Pprof mounts net/http/pprof under /debug/pprof/ — off by default
	// since profile endpoints can stall a process under load.
	Pprof bool
}

// ServeHTTP starts serving the endpoints cfg selects on listen
// (host:port; ":0" picks a free port — read it back with Addr).
func ServeHTTP(listen string, cfg HTTPConfig) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Registry != nil {
			_ = cfg.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if cfg.Traces != nil {
		rec := cfg.Traces
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			serveTraces(w, r, rec)
		})
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s := &HTTPServer{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// TracesResponse is the JSON shape of /debug/traces.
type TracesResponse struct {
	// Total counts spans recorded since process start (including ones
	// the rings have since overwritten).
	Total int64         `json:"total"`
	Spans []*trace.Span `json:"spans"`
}

// serveTraces dumps the recorder's spans. Query parameters:
// ?trace=<hex id> filters to one trace, ?slow=1 restricts to the
// flight-recorder ring.
func serveTraces(w http.ResponseWriter, r *http.Request, rec *trace.Recorder) {
	var traceID uint64
	if s := r.URL.Query().Get("trace"); s != "" {
		id, err := trace.ParseID(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		traceID = id
	}
	slowOnly := r.URL.Query().Get("slow") == "1"
	resp := TracesResponse{
		Total: rec.Total(),
		Spans: rec.Spans(traceID, slowOnly),
	}
	if resp.Spans == nil {
		resp.Spans = []*trace.Span{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(resp)
}

// Addr returns the bound listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *HTTPServer) Close() { _ = s.srv.Close() }
