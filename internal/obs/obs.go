// Package obs wires the planes' existing instrumentation — meta.RPCStats,
// core.IOStats, the WAL's durable.LogStats, GC/repair/lease totals,
// provider inventories, pmanager membership — into a metrics.Registry and
// serves it over HTTP in Prometheus text format. Every blobseerd role and
// the in-process cluster harness use the same family names, so dashboards
// and scrape configs do not care how a deployment is assembled.
package obs

import (
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// RPCMetrics holds the per-RPC instruments one process exposes: server
// request latency/bytes/errors per (role, method), client round-trip
// latency per (role, method) and redial counts per role. One instance is
// shared by every role in the process (the cluster harness runs them all).
type RPCMetrics struct {
	srvLatency  *metrics.HistogramVec
	srvBytesIn  *metrics.CounterVec
	srvBytesOut *metrics.CounterVec
	srvErrors   *metrics.CounterVec
	srvPanics   *metrics.CounterVec

	cliLatency *metrics.HistogramVec
	cliErrors  *metrics.CounterVec
	cliRedials *metrics.CounterVec
}

// NewRPCMetrics creates the rpc-plane instruments and registers them.
func NewRPCMetrics(reg *metrics.Registry) *RPCMetrics {
	m := &RPCMetrics{
		srvLatency: metrics.NewHistogramVec("blobseer_rpc_server_request_seconds",
			"Server-side request latency by role and method.",
			[]string{"role", "method"}, metrics.DefLatencyBuckets),
		srvBytesIn: metrics.NewCounterVec("blobseer_rpc_server_bytes_in_total",
			"Request payload bytes received by role and method.",
			[]string{"role", "method"}),
		srvBytesOut: metrics.NewCounterVec("blobseer_rpc_server_bytes_out_total",
			"Response payload bytes sent by role and method.",
			[]string{"role", "method"}),
		srvErrors: metrics.NewCounterVec("blobseer_rpc_server_errors_total",
			"Error responses by role and method (handler errors, unknown methods and recovered panics).",
			[]string{"role", "method"}),
		srvPanics: metrics.NewCounterVec("blobseer_rpc_server_panics_total",
			"Handler panics recovered into error responses, by role and method.",
			[]string{"role", "method"}),
		cliLatency: metrics.NewHistogramVec("blobseer_rpc_client_roundtrip_seconds",
			"Client-side call round-trip latency (including transparent redials) by role and method.",
			[]string{"role", "method"}, metrics.DefLatencyBuckets),
		cliErrors: metrics.NewCounterVec("blobseer_rpc_client_errors_total",
			"Failed client calls by role and method.",
			[]string{"role", "method"}),
		cliRedials: metrics.NewCounterVec("blobseer_rpc_client_redials_total",
			"Transparent redials of known-dead cached connections, by role.",
			[]string{"role"}),
	}
	reg.MustRegister(m.srvLatency, m.srvBytesIn, m.srvBytesOut, m.srvErrors, m.srvPanics,
		m.cliLatency, m.cliErrors, m.cliRedials)
	return m
}

type serverObserver struct {
	m    *RPCMetrics
	role string
}

// ObserveRequest records one served request. A request carrying a sampled
// trace pins its trace id as the latency bucket's exemplar, so a bad tail
// links straight to a stitchable trace.
func (o serverObserver) ObserveRequest(method string, bytesIn, bytesOut int, dur time.Duration, err error, panicked bool, traceID uint64) {
	o.m.srvLatency.With(o.role, method).ObserveWithExemplar(dur.Seconds(), traceID)
	o.m.srvBytesIn.With(o.role, method).Add(int64(bytesIn))
	o.m.srvBytesOut.With(o.role, method).Add(int64(bytesOut))
	if err != nil {
		o.m.srvErrors.With(o.role, method).Add(1)
	}
	if panicked {
		o.m.srvPanics.With(o.role, method).Add(1)
	}
}

// ServerObserver returns an rpc.ServerObserver recording under the given
// role label.
func (m *RPCMetrics) ServerObserver(role string) rpc.ServerObserver {
	return serverObserver{m: m, role: role}
}

type clientObserver struct {
	m    *RPCMetrics
	role string
}

func (o clientObserver) ObserveCall(addr, method string, dur time.Duration, err error) {
	o.m.cliLatency.With(o.role, method).Observe(dur.Seconds())
	if err != nil {
		o.m.cliErrors.With(o.role, method).Add(1)
	}
}

func (o clientObserver) ObserveRedial(addr string) {
	o.m.cliRedials.With(o.role).Add(1)
}

// ClientObserver returns an rpc.ClientObserver recording under the given
// role label.
func (m *RPCMetrics) ClientObserver(role string) rpc.ClientObserver {
	return clientObserver{m: m, role: role}
}

func u(v uint64) float64 { return float64(v) }

// RegisterVManager exposes the version manager's counter table (the
// maintenance totals and the lease counters) and its journal totals. mgr
// is an accessor so restart-in-place harnesses can swap the instance
// under a live registry.
func RegisterVManager(reg *metrics.Registry, mgr func() *vmanager.Manager) {
	l := []metrics.Label{{Name: "role", Value: "vmanager"}}
	reg.MustRegister(metrics.TableCollectors(vmanager.CounterTable[:], l,
		func(id int) uint64 { return mgr().MaintCounter(vmanager.Counter(id)) })...)
	reg.MustRegister(metrics.GaugeFunc("blobseer_lease_ttl_seconds",
		"Configured write-lease TTL (0 = leases disabled).", l,
		func() float64 { return float64(mgr().MaintCounter(vmanager.LeaseTTLMs)) / 1000 }))
	RegisterWAL(reg, "vmanager", func() durable.LogStats { return mgr().JournalStats() })
}

// RegisterVManagerHA exposes one version-manager instance's
// high-availability view: role, epoch, stream position and replication
// lag. Registered per instance (labeled by address) because the whole
// point of the series is watching leadership move between instances and
// standbys fall behind. mgr is an accessor so kill/restart harnesses can
// swap the instance under a live registry.
func RegisterVManagerHA(reg *metrics.Registry, instance string, mgr func() *vmanager.Manager) {
	l := []metrics.Label{{Name: "role", Value: "vmanager"}, {Name: "instance", Value: instance}}
	st := func() *vmanager.HAStatusResp { return mgr().HAStatus() }
	reg.MustRegister(
		metrics.GaugeFunc("blobseer_vm_ha_is_leader",
			"1 while this instance holds version-manager leadership.", l, func() float64 {
				if st().Role == "leader" {
					return 1
				}
				return 0
			}),
		metrics.GaugeFunc("blobseer_vm_ha_epoch",
			"Newest leadership epoch this instance has adopted (fencing token).", l,
			func() float64 { return u(st().Epoch) }),
		metrics.CounterFunc("blobseer_vm_ha_takeovers_total",
			"Times this instance assumed leadership.", l, func() float64 { return u(st().Takeovers) }),
		metrics.CounterFunc("blobseer_vm_ha_fences_total",
			"Times this instance was deposed by a higher epoch.", l, func() float64 { return u(st().Fences) }),
		metrics.CounterFunc("blobseer_vm_ha_noquorum_commits_total",
			"Quorum-mode commits acknowledged with zero standby acks — rising means the zero-loss guarantee is degraded.", l,
			func() float64 { return u(st().NoQuorumCommits) }),
		metrics.GaugeFunc("blobseer_vm_ha_stream_seq",
			"Replication stream position: records shipped (leader) or applied (standby).", l,
			func() float64 { return u(st().StreamSeq) }),
		metrics.GaugeFunc("blobseer_vm_ha_synced_standbys",
			"Standbys currently inside the leader's commit gate (0 on standbys).", l, func() float64 {
				n := 0
				for _, s := range st().Standbys {
					if s.Synced {
						n++
					}
				}
				return float64(n)
			}),
		metrics.GaugeFunc("blobseer_vm_ha_repl_lag_records",
			"Records the slowest synced standby trails the leader's stream by (0 on standbys).", l,
			func() float64 {
				s := st()
				var lag uint64
				for _, sb := range s.Standbys {
					if sb.Synced && s.StreamSeq > sb.AckSeq && s.StreamSeq-sb.AckSeq > lag {
						lag = s.StreamSeq - sb.AckSeq
					}
				}
				return u(lag)
			}),
	)
}

// RegisterWAL exposes one durable.Log's append/write/fsync counters under
// the given instance label. stats is called at scrape time, so a volatile
// deployment can pass a function returning zeros.
func RegisterWAL(reg *metrics.Registry, instance string, stats func() durable.LogStats) {
	l := []metrics.Label{{Name: "instance", Value: instance}}
	reg.MustRegister(
		metrics.CounterFunc("blobseer_wal_appends_total",
			"WAL records acknowledged as durable.", l, func() float64 { return u(stats().Appends) }),
		metrics.CounterFunc("blobseer_wal_writes_total",
			"WAL file writes (one per group-commit batch).", l, func() float64 { return u(stats().Writes) }),
		metrics.CounterFunc("blobseer_wal_syncs_total",
			"WAL fsyncs (group commit coalesces appends into these).", l, func() float64 { return u(stats().Syncs) }),
	)
}

// RegisterProvider exposes one data provider's counter table (plus
// sidecar WAL costs when it keeps one) under the given instance label.
// srv is an accessor so crash/revive harnesses can swap the instance
// under a live registry.
func RegisterProvider(reg *metrics.Registry, instance string, srv func() *provider.Server) {
	l := []metrics.Label{{Name: "instance", Value: instance}}
	reg.MustRegister(metrics.TableCollectors(provider.CounterTable[:], l,
		func(id int) uint64 { return srv().Counters()[id] })...)
	if _, ok := srv().SidecarStats(); ok {
		RegisterWAL(reg, instance, func() durable.LogStats { st, _ := srv().SidecarStats(); return st })
	}
}

// RegisterPManager exposes cluster membership and per-provider fullness as
// the provider manager sees it. mgr is an accessor, like its siblings', so
// a provider manager restarted in place keeps feeding the same series.
func RegisterPManager(reg *metrics.Registry, mgr func() *pmanager.Manager) {
	role := []metrics.Label{{Name: "role", Value: "pmanager"}}
	count := func(pred func(pmanager.ProviderStatus) bool) float64 {
		var n float64
		for _, p := range mgr().Report() {
			if pred(p) {
				n++
			}
		}
		return n
	}
	reg.MustRegister(
		metrics.GaugeFunc("blobseer_pm_providers_registered",
			"Providers ever registered with the provider manager.", role,
			func() float64 { return count(func(pmanager.ProviderStatus) bool { return true }) }),
		metrics.GaugeFunc("blobseer_pm_providers_live",
			"Providers within the heartbeat liveness timeout.", role,
			func() float64 { return count(func(p pmanager.ProviderStatus) bool { return p.Live }) }),
		&pmFullnessCollector{mgr: mgr},
	)
}

// pmFullnessCollector emits one fullness gauge per registered provider —
// the series set follows membership, so it cannot be a fixed GaugeFunc.
type pmFullnessCollector struct {
	mgr func() *pmanager.Manager
}

func (c *pmFullnessCollector) Family() metrics.Family {
	return metrics.Family{
		Name: "blobseer_pm_provider_fullness",
		Help: "Provider fullness (bytes/capacity; 0 when capacity is unknown) as the provider manager sees it.",
		Type: "gauge",
	}
}

func (c *pmFullnessCollector) Collect(emit func(metrics.Sample)) {
	for _, p := range c.mgr().Report() {
		var fullness float64
		if p.CapBytes > 0 {
			fullness = float64(p.Bytes) / float64(p.CapBytes)
		}
		emit(metrics.Sample{
			Labels: []metrics.Label{{Name: "provider", Value: p.Addr}},
			Value:  fullness,
		})
	}
}

// RegisterMeta exposes one metadata provider's node count (and, when its
// store is persistent, node-log WAL costs) under the given instance
// label. srv is an accessor so restart-in-place harnesses can swap the
// instance under a live registry.
func RegisterMeta(reg *metrics.Registry, instance string, srv func() *meta.Server) {
	l := []metrics.Label{{Name: "instance", Value: instance}}
	reg.MustRegister(
		metrics.GaugeFunc("blobseer_meta_nodes",
			"Metadata tree nodes resident on the provider.", l, func() float64 { return float64(srv().NodeCount()) }),
	)
	persistent := func() *meta.PersistentStore {
		ps, _ := srv().Store().(*meta.PersistentStore)
		return ps
	}
	if persistent() != nil {
		RegisterWAL(reg, instance, func() durable.LogStats {
			if ps := persistent(); ps != nil {
				return ps.LogStats()
			}
			return durable.LogStats{}
		})
	}
}

// RegisterCoreClient exposes one core client's data-plane and
// metadata-plane counters under the given instance label — what the load
// blaster and the cluster harness surface about their own traffic.
func RegisterCoreClient(reg *metrics.Registry, instance string, cli *core.Client) {
	l := []metrics.Label{{Name: "instance", Value: instance}}
	io := cli.IOStats
	ms := cli.MetaRPCStats
	reg.MustRegister(
		metrics.CounterFunc("blobseer_client_chunk_get_rpcs_total",
			"provider.get calls issued (including failed replicas).", l, func() float64 { return float64(io().ChunkGetRPCs) }),
		metrics.CounterFunc("blobseer_client_chunk_put_ops_total",
			"Per-chunk-per-replica store operations issued.", l, func() float64 { return float64(io().ChunkPutOps) }),
		metrics.CounterFunc("blobseer_client_chunk_put_rpcs_total",
			"provider.putchunks round trips issued.", l, func() float64 { return float64(io().ChunkPutRPCs) }),
		metrics.CounterFunc("blobseer_client_chunk_bytes_in_total",
			"Payload bytes received from providers.", l, func() float64 { return float64(io().ChunkBytesIn) }),
		metrics.CounterFunc("blobseer_client_chunk_bytes_out_total",
			"Payload bytes sent to providers.", l, func() float64 { return float64(io().ChunkBytesOut) }),
		metrics.CounterFunc("blobseer_client_chunk_corrupt_reads_total",
			"Replica reads rejected client-side by the end-to-end digest check (failed over).", l, func() float64 { return float64(io().ChunkCorruptReads) }),
		metrics.CounterFunc("blobseer_client_meta_get_rpcs_total",
			"GetNode point lookups issued (one-key meta.getnodes calls).", l, func() float64 { return float64(ms().GetRPCs) }),
		metrics.CounterFunc("blobseer_client_meta_getnodes_rpcs_total",
			"Batched meta.getnodes calls issued.", l, func() float64 { return float64(ms().GetNodesRPCs) }),
		metrics.CounterFunc("blobseer_client_meta_put_rpcs_total",
			"meta.put calls issued (one per provider batch).", l, func() float64 { return float64(ms().PutRPCs) }),
		metrics.CounterFunc("blobseer_client_meta_spec_hits_total",
			"Speculative same-label descent keys that resolved.", l, func() float64 { return float64(ms().SpecHits) }),
		metrics.CounterFunc("blobseer_client_meta_spec_misses_total",
			"Speculative same-label descent keys that came back absent.", l, func() float64 { return float64(ms().SpecMisses) }),
		metrics.CounterFunc("blobseer_client_meta_cache_hits_total",
			"Client-side metadata cache hits.", l, func() float64 { return float64(ms().CacheHits) }),
		metrics.CounterFunc("blobseer_client_meta_cache_misses_total",
			"Client-side metadata cache misses.", l, func() float64 { return float64(ms().CacheMisses) }),
	)
}
