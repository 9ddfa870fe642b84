// Package node starts BlobSeer roles: one constructor per kind of process
// — version manager, provider manager, metadata provider, data provider,
// maintenance daemon, client — each taking a spec and
// returning a handle that owns everything the role runs: its server, its
// durable state, its metrics and tracing attachments and its side loops
// (HA replication, lease expiry, heartbeats, maintenance). Each role's
// flags are declared here too, beside its spec (Roles): cmd/blobseerd
// parses one role's flags into one spec and the cluster harness maps its
// Config to many; neither wires anything beside these constructors, so
// the in-process fault suites exercise the assembly that ships.
//
// Every handle has Addr, Close (graceful, in dependency order) and Kill
// (kill -9: the RPC port goes dark first, and durable logs are released so
// the same spec may be started again on the same directory and address).
package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// EnvConfig is what a process decides once for every role it hosts.
type EnvConfig struct {
	Network rpc.Network
	// Metrics builds a registry with per-role RPC instruments; every role
	// started in the Env adds its plane counters. Implied by
	// MetricsListen, which also serves it (see Env.ServeMetrics).
	Metrics          bool
	MetricsListen    string
	MetricsExemplars bool
	Pprof            bool
	// TraceSample is the 1-in-N head sampling rate (<= 0: tracing off);
	// TraceSlow the flight-recorder threshold (<= 0: recorder off).
	TraceSample int
	TraceSlow   time.Duration
	// CallTimeout bounds every RPC the roles' own clients issue (0 = the
	// rpc default, 30s).
	CallTimeout time.Duration
}

// Env is the shared environment roles start in: the network, the metrics
// registry and the span recorder of one process (or of one in-process
// deployment).
type Env struct {
	EnvConfig
	// Registry is nil when metrics are off, Traces when tracing is off.
	Registry *metrics.Registry
	Traces   *trace.Recorder

	rpcm *obs.RPCMetrics
	http *obs.HTTPServer
	// live maps a series owner ("provider/<addr>", ...) to the instance its
	// registered series read from; see register.
	live sync.Map
}

// NewEnv builds the environment. Nothing listens yet.
func NewEnv(cfg EnvConfig) *Env {
	e := &Env{EnvConfig: cfg}
	if cfg.Metrics || cfg.MetricsListen != "" {
		e.Registry = metrics.NewRegistry()
		e.Registry.SetExemplars(cfg.MetricsExemplars)
		e.rpcm = obs.NewRPCMetrics(e.Registry)
	}
	if cfg.TraceSample > 0 {
		e.Traces = trace.NewRecorder(0, 0)
	}
	return e
}

// ServeMetrics starts the HTTP exposition (/metrics, /healthz,
// /debug/traces, optionally /debug/pprof) on EnvConfig.MetricsListen; a
// no-op without one. Call it after the roles are up, so a healthy probe
// means a serving role.
func (e *Env) ServeMetrics() error {
	if e.MetricsListen == "" {
		return nil
	}
	h, err := obs.ServeHTTP(e.MetricsListen, obs.HTTPConfig{Registry: e.Registry, Traces: e.Traces, Pprof: e.Pprof})
	e.http = h
	return err
}

// MetricsAddr returns the bound exposition address ("" when not serving).
func (e *Env) MetricsAddr() string {
	if e.http == nil {
		return ""
	}
	return e.http.Addr()
}

// Close stops the HTTP exposition. Roles are closed through their handles.
func (e *Env) Close() {
	if e.http != nil {
		e.http.Close()
	}
}

// tracer builds a tracer for one role instance over the shared recorder
// (nil — which every attach point tolerates — when tracing is off). A role
// restarted in place gets a fresh tracer feeding the same recorder, so
// traces stitch across the restart.
func (e *Env) tracer(role, node string) *trace.Tracer {
	return trace.New(role, node, e.Traces, e.TraceSample, e.TraceSlow)
}

// client builds the RPC client of one of a role's side loops, sourced at
// the given fabric node so fault injection applies to its traffic too.
// The background planes (replication, lease expiry, maintenance) are
// traced: they have no caller to inherit a trace from, so each loop
// iteration opens a root span through the client's tracer and its calls
// join it. Heartbeats are not.
func (e *Env) client(role, source string, traced bool) *rpc.Client {
	cli := rpc.NewClientFrom(e.Network, e.CallTimeout, source)
	if e.rpcm != nil {
		cli.SetObserver(e.rpcm.ClientObserver(role))
	}
	if traced {
		cli.SetTracer(e.tracer(role, source))
	}
	return cli
}

// server is what every role's RPC server offers the assembly.
type server interface {
	SetRPCObserver(rpc.ServerObserver)
	SetRPCTracer(*trace.Tracer)
	Start() error
	Addr() string
}

// serve attaches the role's metrics observer and tracer and then starts
// the server — in that order, so no request is ever served unobserved.
// Spans are labeled with the address the role serves at. A ":0" listen
// address only becomes one when bound, so the tracer is relabeled after
// Start; no caller can know that address any earlier, so no span ever
// carries the placeholder.
func (e *Env) serve(role string, s server) error {
	if e.rpcm != nil {
		s.SetRPCObserver(e.rpcm.ServerObserver(role))
	}
	listen := s.Addr()
	s.SetRPCTracer(e.tracer(role, listen))
	if err := s.Start(); err != nil {
		return fmt.Errorf("node: starting %s at %s: %w", role, listen, err)
	}
	if s.Addr() != listen {
		s.SetRPCTracer(e.tracer(role, s.Addr()))
	}
	return nil
}

// register points the metric series owned by key at v, registering them
// on first use. A role started again on the same address (restart in
// place) swaps itself in under the series its first incarnation
// registered, instead of registering a duplicate.
func register[T any](e *Env, key string, v *T, reg func(get func() *T)) {
	if e.Registry == nil {
		return
	}
	p, loaded := e.live.LoadOrStore(key, new(atomic.Pointer[T]))
	cur := p.(*atomic.Pointer[T])
	cur.Store(v)
	if !loaded {
		reg(cur.Load)
	}
}

// NewClient connects a client to a deployment through the environment:
// its network, call timeout and tracer, plus RPC and data-plane metrics
// under the client's name. cfg carries the deployment's addresses and the
// client's own tuning.
func NewClient(e *Env, cfg core.Config) (*core.Client, error) {
	cfg.Network = e.Network
	cfg.CallTimeout = e.CallTimeout
	cfg.Tracer = e.tracer("client", cfg.ClientName)
	cli, err := core.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	if e.rpcm != nil {
		cli.RPC().SetObserver(e.rpcm.ClientObserver("client"))
		obs.RegisterCoreClient(e.Registry, cfg.ClientName, cli)
	}
	return cli, nil
}
