// Package cluster assembles a complete BlobSeer deployment — version
// manager, provider manager, N data providers, M metadata providers — in
// one process, over either the simulated fabric (experiments; the
// Grid'5000 stand-in) or real TCP loopback (integration tests and the
// daemon tooling). It is the "testbed in a box" every experiment runs on.
package cluster

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/vmanager"
)

// Config sizes and shapes a deployment.
type Config struct {
	// DataProviders and MetaProviders set the service counts (defaults 4
	// and 2).
	DataProviders int
	MetaProviders int
	// Strategy selects the chunk placement strategy (default roundrobin).
	Strategy string
	// Fabric, when set, shapes the simulated network. Ignored for TCP.
	Fabric *netsim.Fabric
	// UseTCP runs everything over real loopback sockets instead of the
	// in-process simulated transport.
	UseTCP bool
	// HeartbeatInterval / HeartbeatTimeout tune provider liveness
	// (defaults 100ms / 1s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// StoreFactory builds each data provider's chunk engine (default RAM).
	StoreFactory func(i int) (chunk.Store, error)
	// MetaReplication is the metadata replica degree (default 1).
	MetaReplication int
	// CallTimeout bounds client RPCs (default 30s).
	CallTimeout time.Duration
	// GCInterval, RepairInterval and ScrubInterval enable the background
	// maintenance loop (see internal/maint), one interval per action:
	// reclaim sweeps pruned versions, deleted blobs and aborted-write
	// orphans; replicate re-replicates chunks off dead providers and
	// rebalances overfull ones; verify digest-checks every provider's
	// whole inventory at a bounded rate. Zero leaves an action out of the
	// loop (passes can still be run on demand with Maint.Run).
	GCInterval     time.Duration
	RepairInterval time.Duration
	ScrubInterval  time.Duration
	// GCOrphanGrace is the minimum chunk age before an unreferenced chunk
	// counts as an aborted-write orphan (default 5m; see maint.Config).
	GCOrphanGrace time.Duration
	// RepairHighWater / RepairLowWater are the rebalance fullness
	// watermarks (defaults 0.85 / 0.68; see maint.Config).
	RepairHighWater float64
	RepairLowWater  float64
	// FullnessWatermark is the client-side retry-placement fullness cutoff
	// (default 0.85, mirroring RepairHighWater's default; see
	// core.Config.FullnessWatermark). Must be in (0, 1] when set.
	FullnessWatermark float64
	// ScrubBytesPerSec bounds the scrubber's aggregate verification rate
	// (default 32 MiB/s; maint.NoRateLimit disables pacing — the right
	// choice for tests).
	ScrubBytesPerSec uint64
	// LeaseTTL enables write leases: Assign grants each version this TTL,
	// clients renew while uploading, and the expiry loop aborts (and
	// identity-weaves) versions whose lease lapses — so a writer killed
	// between Assign and Commit un-wedges within a TTL, no restart needed.
	// Zero disables leases (the seed behavior).
	LeaseTTL time.Duration
	// LeaseExpiryInterval tunes how often lapsed leases are collected
	// (default LeaseTTL/4, min 10ms). Only meaningful with LeaseTTL > 0.
	LeaseExpiryInterval time.Duration
	// ProviderCapacity, when set, declares data provider i's nominal
	// capacity in bytes (reported via heartbeats; fullness = bytes/cap
	// drives capacity-aware placement and the rebalancer). Nil or a
	// non-positive return means unknown/unbounded.
	ProviderCapacity func(i int) int64
	// DataDir, when set, makes the control plane durable: the version
	// manager journals to DataDir/vmanager and metadata provider i
	// persists to DataDir/meta<i>, so KillVM/KillMeta + Restart* recover
	// the full state (crash/recovery fault tests). Empty keeps the seed's
	// all-RAM behavior.
	DataDir string
	// NoFsyncWAL opts a durable deployment out of per-append journal
	// fsyncs. Fsync is the DEFAULT whenever DataDir is set: WAL group
	// commit coalesces concurrent appends into one fsync, which makes
	// machine-crash durability cheap enough to always be on. Without
	// fsync, appends still survive process crashes (they reach the OS
	// immediately) but not whole-machine crashes.
	NoFsyncWAL bool
	// VMStandbys runs N standby version managers alongside the primary,
	// replicating its journal over vm.replicate and taking over via the
	// leadership lease when it dies. Requires DataDir (replication IS the
	// durable journal stream). Clients, GC and repair are wired with the
	// full group address list so they follow leadership redirects and ride
	// out failovers. Zero keeps the seed's single version manager.
	VMStandbys int
	// VMLeadershipTTL is the leadership lease (default 1s): a standby that
	// hears nothing from the leader for longer — plus a rank stagger —
	// fences the old epoch and takes over.
	VMLeadershipTTL time.Duration
	// VMReplAsync selects asynchronous replication (repl=async) instead of
	// the default quorum gating (repl=quorum), trading the no-lost-commits
	// guarantee for zero commit-path latency.
	VMReplAsync bool
	// Metrics enables the observability plane without HTTP exposition:
	// a metrics.Registry collecting per-RPC latency histograms from every
	// role server and client plus all plane counters (maintenance/lease
	// totals, WAL costs, provider inventories, pmanager membership).
	// Implied by MetricsListen.
	Metrics bool
	// MetricsListen, when set, additionally serves the registry over HTTP
	// on this address: GET /metrics (Prometheus text format) and
	// GET /healthz. ":0" picks a free port — read it back with
	// MetricsAddr.
	MetricsListen string
	// TraceSample enables distributed request tracing at 1-in-N head
	// sampling. Zero means the default (1 in 256 — tracing is ON by
	// default, so deployments and benchmarks exercise the shipping
	// path); 1 samples every operation; negative disables tracing.
	TraceSample int
	// TraceSlow is the flight-recorder threshold: a span slower than
	// this is force-retained in the slow ring even when head sampling
	// skipped its trace (tail sampling for the ops that matter most).
	// Zero means the default (50ms); negative disables the recorder.
	TraceSlow time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ on the
	// MetricsListen HTTP server.
	Pprof bool
	// MetricsExemplars renders OpenMetrics exemplars — the sampled trace
	// id pinned to each histogram bucket — on /metrics.
	MetricsExemplars bool
}

// Tracing defaults: head sampling at 1/256 keeps the recording cost
// invisible on the hot path; 50ms is far past any healthy op on the
// simulated fabric, so the flight recorder holds genuine outliers.
const (
	defaultTraceSample = 256
	defaultTraceSlow   = 50 * time.Millisecond
)

// Cluster is a running deployment.
type Cluster struct {
	cfg     Config
	Network rpc.Network
	Fabric  *netsim.Fabric

	// VM is the primary version manager (VMs[0]); VMs holds the whole
	// replicated group when Config.VMStandbys > 0. Instance identity is
	// positional and survives kill/restart — leadership moves between
	// instances, indexes never do.
	VM          *vmanager.Server
	VMs         []*vmanager.Server
	PM          *pmanager.Server
	Providers   []*provider.Server
	MetaServers []*meta.Server

	vmAddr    string
	vmAddrs   []string
	pmAddr    string
	provAddrs []string
	metaAddrs []string

	// srvMu guards the restartable server slots (VM/VMs, MetaServers,
	// Providers) against concurrent Kill/Restart/Close.
	srvMu         sync.Mutex
	vmDir         string
	vmDirs        []string
	vmReplClients []*rpc.Client
	metaDirs      []string
	provStores    []chunk.Store
	provOpts      []provider.Options

	hbClients []*rpc.Client

	// clientMu guards clients/nextClient: tests spin up clients from
	// concurrent goroutines.
	clientMu   sync.Mutex
	clients    []*core.Client
	nextClient int

	// Maint is the deployment's maintenance engine — reclaim, replicate
	// and verify (always built; the background loop only runs the actions
	// whose Config interval is > 0).
	Maint       *maint.Engine
	maintClient *rpc.Client
	maintLoop   *maint.Loop

	// Lease expiry: leaseWeaver runs the server-side identity weave over
	// its own metadata client; the loop runs when Config.LeaseTTL > 0.
	leaseClient *rpc.Client
	leaseWeaver vmanager.AbortWeaver
	leaseStop   chan struct{}
	leaseDone   chan struct{}

	// Observability plane (Config.Metrics / Config.MetricsListen): one
	// registry for the whole deployment, role-labeled RPC instruments,
	// and the optional HTTP exposition endpoint.
	registry    *metrics.Registry
	rpcMetrics  *obs.RPCMetrics
	metricsHTTP *obs.HTTPServer

	// Tracing plane (Config.TraceSample): one shared span recorder for
	// the whole in-process deployment — spans carry role and node labels
	// — with per-role tracer instances feeding it.
	traces      *trace.Recorder
	traceSample int
	traceSlow   time.Duration
}

// Registry returns the deployment's metrics registry (nil unless
// Config.Metrics or Config.MetricsListen enabled the observability
// plane).
func (c *Cluster) Registry() *metrics.Registry { return c.registry }

// MetricsAddr returns the bound /metrics HTTP address ("" unless
// Config.MetricsListen was set).
func (c *Cluster) MetricsAddr() string {
	if c.metricsHTTP == nil {
		return ""
	}
	return c.metricsHTTP.Addr()
}

// serverObserver returns the RPC observer for one role ("" when the
// observability plane is off).
func (c *Cluster) serverObserver(role string) rpc.ServerObserver {
	if c.rpcMetrics == nil {
		return nil
	}
	return c.rpcMetrics.ServerObserver(role)
}

func (c *Cluster) clientObserver(role string) rpc.ClientObserver {
	if c.rpcMetrics == nil {
		return nil
	}
	return c.rpcMetrics.ClientObserver(role)
}

// Traces returns the deployment's span recorder (nil when tracing is
// disabled via a negative Config.TraceSample).
func (c *Cluster) Traces() *trace.Recorder { return c.traces }

// roleTracer builds a tracer for one role instance over the shared
// recorder (nil — which every attach point tolerates — when tracing is
// off). Restart-in-place paths call this again for the replacement
// server; the fresh tracer feeds the same recorder, so traces stitch
// across the restart.
func (c *Cluster) roleTracer(role, node string) *trace.Tracer {
	return trace.New(role, node, c.traces, c.traceSample, c.traceSlow)
}

// Start launches a deployment per cfg.
func Start(cfg Config) (*Cluster, error) {
	if cfg.DataProviders <= 0 {
		cfg.DataProviders = 4
	}
	if cfg.MetaProviders <= 0 {
		cfg.MetaProviders = 2
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	if cfg.StoreFactory == nil {
		cfg.StoreFactory = func(int) (chunk.Store, error) { return chunk.NewMemStore(), nil }
	}
	if cfg.MetaReplication < 1 {
		cfg.MetaReplication = 1
	}

	if cfg.Fabric == nil && !cfg.UseTCP {
		// A default, unshaped fabric so fault injection (KillProvider /
		// ReviveProvider) works even when no shaping was requested.
		cfg.Fabric = netsim.NewFabric(netsim.Config{})
	}
	c := &Cluster{cfg: cfg, Fabric: cfg.Fabric}
	if cfg.MetricsListen != "" {
		cfg.Metrics = true
		c.cfg.Metrics = true
	}
	if cfg.Metrics {
		c.registry = metrics.NewRegistry()
		c.registry.SetExemplars(cfg.MetricsExemplars)
		c.rpcMetrics = obs.NewRPCMetrics(c.registry)
	}
	c.traceSample, c.traceSlow = cfg.TraceSample, cfg.TraceSlow
	if c.traceSample == 0 {
		c.traceSample = defaultTraceSample
	}
	if c.traceSlow == 0 {
		c.traceSlow = defaultTraceSlow
	}
	if c.traceSample > 0 {
		c.traces = trace.NewRecorder(0, 0)
	}
	if cfg.UseTCP {
		c.Network = rpc.NewTCPNetwork()
	} else {
		c.Network = rpc.NewSimNetwork(cfg.Fabric)
	}
	addr := func(name string) string {
		if cfg.UseTCP {
			return "127.0.0.1:0"
		}
		return name
	}

	// Version managers: durable (journaled) when a data dir is configured;
	// a replicated group of 1+VMStandbys instances when standbys are asked
	// for. HA is enabled only after every instance's server is up (with
	// TCP ":0" the group addresses are only known then).
	if cfg.VMStandbys < 0 {
		cfg.VMStandbys = 0
	}
	if cfg.VMStandbys > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: VMStandbys requires DataDir (replication rides the durable journal)")
	}
	for i := 0; i <= cfg.VMStandbys; i++ {
		mgr, vmDir, err := buildVMManager(cfg, i)
		if err != nil {
			c.Close()
			return nil, err
		}
		name := "vm"
		if i > 0 {
			name = fmt.Sprintf("vm-sb%d", i)
		}
		vm := vmanager.NewServerWithManager(c.Network, addr(name), mgr)
		vm.SetRPCObserver(c.serverObserver("vmanager"))
		vm.SetRPCTracer(c.roleTracer("vmanager", name))
		if err := vm.Start(); err != nil {
			mgr.Close()
			c.Close()
			return nil, fmt.Errorf("cluster: starting version manager %d: %w", i, err)
		}
		c.VMs = append(c.VMs, vm)
		c.vmAddrs = append(c.vmAddrs, vm.Addr())
		c.vmDirs = append(c.vmDirs, vmDir)
	}
	c.VM = c.VMs[0]
	c.vmAddr = c.vmAddrs[0]
	c.vmDir = c.vmDirs[0]
	if cfg.VMStandbys > 0 {
		// Each instance replicates through its own client sourced at its
		// own address (mirroring provider heartbeats), so fabric-level
		// fault injection applies to replication traffic too.
		for i := range c.VMs {
			cli := rpc.NewClientFrom(c.Network, cfg.CallTimeout, c.vmAddrs[i])
			cli.SetObserver(c.clientObserver("vmanager"))
			cli.SetTracer(c.roleTracer("vmanager", c.vmAddrs[i]))
			cli.SetRootTraces(true)
			c.vmReplClients = append(c.vmReplClients, cli)
		}
		for i := len(c.VMs) - 1; i >= 0; i-- {
			// Only instance 0 may bootstrap epoch 1; on a restarted
			// deployment its journal already knows an epoch and the flag
			// is inert, so every node rejoins as standby and defers to
			// the journaled fencing tokens. It joins LAST: a fresh leader
			// pushes its first catch-up snapshot at once, and a standby
			// that is not listening yet stays unsynced for a third of a
			// TTL — long enough for a crash test to kill the leader first.
			if err := c.enableVMHA(i, i == 0); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: enabling HA on version manager %d: %w", i, err)
			}
		}
	}
	if c.registry != nil {
		// Accessors resolve through the cluster so restart-in-place swaps
		// (RestartVM and friends) keep feeding the same series. The
		// deployment-wide maintenance/lease totals come from instance 0
		// (standbys replicate the same state); the per-instance HA series
		// (role, epoch, replication lag) are labeled per address.
		obs.RegisterVManager(c.registry, func() *vmanager.Manager {
			c.srvMu.Lock()
			defer c.srvMu.Unlock()
			return c.VMs[0].Manager()
		})
		for i := range c.VMs {
			idx := i
			obs.RegisterVManagerHA(c.registry, c.vmAddrs[idx], func() *vmanager.Manager {
				c.srvMu.Lock()
				defer c.srvMu.Unlock()
				return c.VMs[idx].Manager()
			})
		}
	}

	// Provider manager.
	pm, err := pmanager.NewServer(c.Network, addr("pm"), cfg.Strategy, cfg.HeartbeatTimeout)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.PM = pm
	c.PM.SetRPCObserver(c.serverObserver("pmanager"))
	c.PM.SetRPCTracer(c.roleTracer("pmanager", "pm"))
	if err := c.PM.Start(); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: starting provider manager: %w", err)
	}
	c.pmAddr = c.PM.Addr()
	if c.registry != nil {
		obs.RegisterPManager(c.registry, c.PM.Manager())
	}

	// Metadata providers: persistent node stores under a data dir.
	for i := 0; i < cfg.MetaProviders; i++ {
		store, dir, err := buildMetaStore(cfg, i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.metaDirs = append(c.metaDirs, dir)
		ms := meta.NewServerWithStore(c.Network, addr(fmt.Sprintf("mp%d", i)), store)
		ms.SetRPCObserver(c.serverObserver("metadata"))
		ms.SetRPCTracer(c.roleTracer("metadata", fmt.Sprintf("mp%d", i)))
		if err := ms.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: starting metadata provider %d: %w", i, err)
		}
		c.MetaServers = append(c.MetaServers, ms)
		c.metaAddrs = append(c.metaAddrs, ms.Addr())
		if c.registry != nil {
			idx := i
			obs.RegisterMeta(c.registry, ms.Addr(), func() *meta.Server {
				c.srvMu.Lock()
				defer c.srvMu.Unlock()
				return c.MetaServers[idx]
			})
		}
	}

	// Data providers. Each provider heartbeats through its own RPC client
	// sourced at its own address, so a provider the fabric marks down
	// really goes silent and ages out of the provider manager.
	for i := 0; i < cfg.DataProviders; i++ {
		store, err := cfg.StoreFactory(i)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: store for provider %d: %w", i, err)
		}
		var opts provider.Options
		if cfg.DataDir != "" {
			// Durable deployments get durable provider sidecars too: put
			// ages and tombstones survive Kill/Revive.
			opts.SidecarDir = filepath.Join(cfg.DataDir, fmt.Sprintf("prov%d-sidecar", i))
			opts.FsyncSidecar = !cfg.NoFsyncWAL
		}
		if cfg.ProviderCapacity != nil {
			opts.CapacityBytes = cfg.ProviderCapacity(i)
		}
		dp, err := provider.NewServerWithOptions(c.Network, addr(fmt.Sprintf("dp%d", i)), store, opts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: opening data provider %d: %w", i, err)
		}
		if err := dp.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: starting data provider %d: %w", i, err)
		}
		dp.SetRPCObserver(c.serverObserver("provider"))
		dp.SetRPCTracer(c.roleTracer("provider", fmt.Sprintf("dp%d", i)))
		c.provStores = append(c.provStores, store)
		c.provOpts = append(c.provOpts, opts)
		c.Providers = append(c.Providers, dp)
		c.provAddrs = append(c.provAddrs, dp.Addr())
		c.PM.Manager().Register(dp.Addr())
		hb := rpc.NewClientFrom(c.Network, cfg.CallTimeout, dp.Addr())
		hb.SetObserver(c.clientObserver("provider"))
		c.hbClients = append(c.hbClients, hb)
		dp.StartHeartbeats(hb, c.pmAddr, cfg.HeartbeatInterval)
		if c.registry != nil {
			idx := i
			obs.RegisterProvider(c.registry, dp.Addr(), func() *provider.Server {
				c.srvMu.Lock()
				defer c.srvMu.Unlock()
				return c.Providers[idx]
			})
		}
	}

	// Maintenance plane: the engine is always available; the background
	// loop runs the actions an interval was configured for.
	c.maintClient = rpc.NewClientFrom(c.Network, cfg.CallTimeout, "maint")
	c.maintClient.SetObserver(c.clientObserver("maint"))
	c.maintClient.SetTracer(c.roleTracer("maint", "maint"))
	c.maintClient.SetRootTraces(true)
	c.Maint, err = maint.New(maint.Config{
		Deployment: maint.Deployment{
			RPC:  c.maintClient,
			Meta: meta.NewClient(c.maintClient, c.metaAddrs, cfg.MetaReplication, 0),
			VM:   vmanager.NewCaller(c.maintClient, c.vmAddrs),
			PM:   c.pmAddr,
		},
		OrphanGrace:      cfg.GCOrphanGrace,
		HighWater:        cfg.RepairHighWater,
		LowWater:         cfg.RepairLowWater,
		ScrubBytesPerSec: cfg.ScrubBytesPerSec,
	})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: building maintenance engine: %w", err)
	}
	c.maintLoop = maint.StartLoop(c.Maint,
		maint.Intervals{Reclaim: cfg.GCInterval, Replicate: cfg.RepairInterval, Verify: cfg.ScrubInterval}, nil)

	// Lease expiry loop: collects lapsed write leases, weaving each dead
	// version's identity tree through a dedicated metadata client before
	// the abort lands. Runs colocated with the version manager (it is a
	// manager method, not an RPC), which is where a real deployment would
	// run it too.
	if cfg.LeaseTTL > 0 {
		c.leaseClient = rpc.NewClientFrom(c.Network, cfg.CallTimeout, "lease")
		c.leaseClient.SetObserver(c.clientObserver("lease"))
		c.leaseClient.SetTracer(c.roleTracer("lease", "lease"))
		c.leaseClient.SetRootTraces(true)
		leaseMeta := meta.NewClient(c.leaseClient, c.metaAddrs, cfg.MetaReplication, 0)
		c.leaseWeaver = func(in meta.IdentityInput) error {
			return meta.WeaveIdentity(leaseMeta, in)
		}
		interval := cfg.LeaseExpiryInterval
		if interval <= 0 {
			interval = cfg.LeaseTTL / 4
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		c.leaseStop = make(chan struct{})
		c.leaseDone = make(chan struct{})
		go func(stop, done chan struct{}) {
			defer close(done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					_, _ = c.RunLeaseExpiry() // journal errors retry next tick
				}
			}
		}(c.leaseStop, c.leaseDone)
	}

	if cfg.MetricsListen != "" {
		h, err := obs.ServeHTTPWith(cfg.MetricsListen, obs.HTTPConfig{
			Registry: c.registry,
			Traces:   c.traces,
			Pprof:    cfg.Pprof,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.metricsHTTP = h
	}
	return c, nil
}

// RunLeaseExpiry executes one lease-expiry pass synchronously, returning
// how many versions were aborted. The managers are re-resolved under
// srvMu on every pass: restarts swap in new Manager instances, and the
// loop must follow them rather than expire against dead ones. Every group
// member is offered the pass — each instance gates internally on being a
// live leader (a standby expiring versions on its own would diverge from
// the leader's journal), so exactly one acts.
func (c *Cluster) RunLeaseExpiry() (int, error) {
	c.srvMu.Lock()
	mgrs := make([]*vmanager.Manager, len(c.VMs))
	for i, vm := range c.VMs {
		mgrs[i] = vm.Manager()
	}
	c.srvMu.Unlock()
	total := 0
	var firstErr error
	for _, mgr := range mgrs {
		n, err := mgr.ExpireLeases(c.leaseWeaver)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// CorruptChunk flips one payload byte of provider i's copy of key at the
// given offset, bypassing every write path — the fault-injection hook the
// integrity tests build on. The provider's store engine must support
// corruption (all the built-in engines do).
func (c *Cluster) CorruptChunk(i int, key chunk.Key, off uint64) error {
	if i < 0 || i >= len(c.provStores) {
		return fmt.Errorf("cluster: no provider %d", i)
	}
	cor, ok := c.provStores[i].(chunk.Corruptor)
	if !ok {
		return fmt.Errorf("cluster: provider %d's store (%T) cannot inject corruption", i, c.provStores[i])
	}
	return cor.Corrupt(key, off)
}

// VMAddr returns the primary version manager's address (instance 0; with
// HA this is whoever bootstrapped, not necessarily the current leader).
func (c *Cluster) VMAddr() string { return c.vmAddr }

// VMAddrs returns every version-manager instance's address, in instance
// order (length 1 without HA).
func (c *Cluster) VMAddrs() []string { return append([]string(nil), c.vmAddrs...) }

// LeaderIndex returns the instance index currently holding leadership, or
// -1 when no instance does (mid-election, or the whole group is down).
// Without HA the lone instance counts as leader.
func (c *Cluster) LeaderIndex() int {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if len(c.VMs) == 1 {
		return 0
	}
	for i, vm := range c.VMs {
		st := vm.Manager().HAStatus()
		if st.Enabled && st.Role == "leader" {
			return i
		}
	}
	return -1
}

// LeaderManager returns the Manager currently holding leadership, falling
// back to instance 0 when nobody does (callers that need a concrete
// instance for stats; its gates still apply).
func (c *Cluster) LeaderManager() *vmanager.Manager {
	if i := c.LeaderIndex(); i >= 0 {
		c.srvMu.Lock()
		defer c.srvMu.Unlock()
		return c.VMs[i].Manager()
	}
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	return c.VMs[0].Manager()
}

// PMAddr returns the provider manager's address.
func (c *Cluster) PMAddr() string { return c.pmAddr }

// ProviderAddrs returns the data provider addresses, in start order.
func (c *Cluster) ProviderAddrs() []string { return append([]string(nil), c.provAddrs...) }

// MetaAddrs returns the metadata provider addresses.
func (c *Cluster) MetaAddrs() []string { return append([]string(nil), c.metaAddrs...) }

// ClientOptions tune clients created by NewClient.
type ClientOptions struct {
	// Name identifies the client's simulated machine (auto-assigned when
	// empty).
	Name string
	// MetaCacheNodes enables the client-side metadata cache when > 0.
	MetaCacheNodes int
	// ParallelIO bounds concurrent chunk transfers (default 16).
	ParallelIO int
	// Observer sees every chunk transfer (GloBeM monitoring).
	Observer core.Observer
}

// NewClient builds a client wired to this deployment. Each client is
// attributed its own simulated machine ("clientN") so the fabric models
// one NIC per client. Clients are closed automatically by Cluster.Close.
func (c *Cluster) NewClient(opts ClientOptions) (*core.Client, error) {
	name := opts.Name
	if name == "" {
		c.clientMu.Lock()
		name = fmt.Sprintf("client%d", c.nextClient)
		c.nextClient++
		c.clientMu.Unlock()
	}
	cli, err := core.NewClient(core.Config{
		Network:           c.Network,
		ClientName:        name,
		VMAddr:            c.vmAddr,
		VMAddrs:           c.VMAddrs(),
		PMAddr:            c.pmAddr,
		MetaProviders:     c.metaAddrs,
		MetaReplication:   c.cfg.MetaReplication,
		MetaCacheNodes:    opts.MetaCacheNodes,
		CallTimeout:       c.cfg.CallTimeout,
		ParallelIO:        opts.ParallelIO,
		FullnessWatermark: c.cfg.FullnessWatermark,
		Observer:          opts.Observer,
		Tracer:            c.roleTracer("client", name),
	})
	if err != nil {
		return nil, err
	}
	if c.rpcMetrics != nil {
		cli.RPC().SetObserver(c.rpcMetrics.ClientObserver("client"))
		obs.RegisterCoreClient(c.registry, name, cli)
	}
	c.clientMu.Lock()
	c.clients = append(c.clients, cli)
	c.clientMu.Unlock()
	return cli, nil
}

// KillProvider simulates a crash of data provider i. On the simulated
// fabric the node drops off the network (in-flight and future requests
// fail); over TCP the server is closed outright. Either way
// ReviveProvider brings it back.
func (c *Cluster) KillProvider(i int) {
	if i < 0 || i >= len(c.Providers) {
		return
	}
	if c.Fabric != nil && !c.cfg.UseTCP {
		c.Fabric.SetDown(c.provAddrs[i], true)
		return
	}
	c.srvMu.Lock()
	c.Providers[i].Close()
	c.srvMu.Unlock()
}

// ReviveProvider undoes KillProvider: on the simulated fabric the node
// rejoins the network; over TCP a new server is started in place on the
// same address and chunk store (the "disk" that survived the crash), and
// it re-registers with the provider manager.
func (c *Cluster) ReviveProvider(i int) error {
	if i < 0 || i >= len(c.Providers) {
		return fmt.Errorf("cluster: no provider %d", i)
	}
	if c.Fabric != nil && !c.cfg.UseTCP {
		c.Fabric.SetDown(c.provAddrs[i], false)
		return nil
	}
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	// The crashed instance's Close released its sidecar log, so the
	// replacement may reopen (and replay) it: put ages and tombstones
	// survive the crash.
	dp, err := provider.NewServerWithOptions(c.Network, c.provAddrs[i], c.provStores[i], c.provOpts[i])
	if err != nil {
		return fmt.Errorf("cluster: reopening data provider %d: %w", i, err)
	}
	dp.SetRPCObserver(c.serverObserver("provider"))
	dp.SetRPCTracer(c.roleTracer("provider", fmt.Sprintf("dp%d", i)))
	if err := dp.Start(); err != nil {
		return fmt.Errorf("cluster: restarting data provider %d: %w", i, err)
	}
	c.Providers[i] = dp
	c.PM.Manager().Register(dp.Addr())
	dp.StartHeartbeats(c.hbClients[i], c.pmAddr, c.cfg.HeartbeatInterval)
	return nil
}

// KillVM crashes the primary version manager (instance 0); see
// KillVMIndex.
func (c *Cluster) KillVM() { c.KillVMIndex(0) }

// KillVMIndex crashes version-manager instance i: its RPC server goes
// dark immediately and nothing is flushed — exactly the state a kill -9
// leaves behind. The journal (when Config.DataDir is set) already holds
// every acknowledged mutation. With HA the in-process Manager is also
// halted, so the "dead" instance stops heartbeating, replicating and
// expiring leases — a closed server alone would leave a ghost leader
// running inside the test process.
func (c *Cluster) KillVMIndex(i int) {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if i < 0 || i >= len(c.VMs) {
		return
	}
	c.VMs[i].Close()
	if len(c.VMs) > 1 {
		c.VMs[i].Manager().Halt()
	}
}

// RestartVM brings the primary version manager (instance 0) back; see
// RestartVMIndex.
func (c *Cluster) RestartVM() error { return c.RestartVMIndex(0) }

// RestartVMIndex brings version-manager instance i back on its original
// address, recovering all state from the journal when the deployment is
// durable (with a fresh empty manager otherwise, which is what a RAM-only
// restart really loses). With HA the revived instance always rejoins as a
// standby — its journal knows the old epoch, so the bootstrap flag is
// inert — and is fenced, resynced, or promoted by the ordinary protocol.
func (c *Cluster) RestartVMIndex(i int) error {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if i < 0 || i >= len(c.VMs) {
		return fmt.Errorf("cluster: no version manager %d", i)
	}
	// Stop the crashed instance's HA machinery (no-op when already halted
	// or HA is off), then release its journal fd BEFORE the new manager
	// opens the directory: the crashed server's in-flight handler
	// goroutines may still be appending (group commit can hold their
	// batches in flight), and an old-instance write landing after the new
	// instance's Open would interleave two writers on one WAL. Closing
	// first fails those stragglers with ErrClosed — exactly what a real
	// kill -9 does to them.
	if len(c.VMs) > 1 {
		c.VMs[i].Manager().Halt()
	}
	c.VMs[i].Manager().Close()
	mgr, _, err := buildVMManager(c.cfg, i)
	if err != nil {
		return fmt.Errorf("cluster: recovering version manager %d: %w", i, err)
	}
	vm := vmanager.NewServerWithManager(c.Network, c.vmAddrs[i], mgr)
	vm.SetRPCObserver(c.serverObserver("vmanager"))
	vmName := "vm"
	if i > 0 {
		vmName = fmt.Sprintf("vm-sb%d", i)
	}
	vm.SetRPCTracer(c.roleTracer("vmanager", vmName))
	if err := vm.Start(); err != nil {
		mgr.Close()
		return fmt.Errorf("cluster: restarting version manager %d: %w", i, err)
	}
	c.VMs[i] = vm
	if i == 0 {
		c.VM = vm
	}
	if len(c.VMs) > 1 {
		if err := c.enableVMHA(i, false); err != nil {
			return fmt.Errorf("cluster: re-enabling HA on version manager %d: %w", i, err)
		}
	}
	return nil
}

// KillMeta crashes metadata provider i (RPC dark, nothing flushed).
func (c *Cluster) KillMeta(i int) {
	if i < 0 || i >= len(c.MetaServers) {
		return
	}
	c.srvMu.Lock()
	c.MetaServers[i].Close()
	c.srvMu.Unlock()
}

// RestartMeta brings metadata provider i back on its original address,
// replaying its node log when the deployment is durable.
func (c *Cluster) RestartMeta(i int) error {
	if i < 0 || i >= len(c.MetaServers) {
		return fmt.Errorf("cluster: no metadata provider %d", i)
	}
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	// Close the crashed instance's node log first (no-op for MemStore),
	// for the same reason RestartVM does: no two writers on one WAL.
	if closer, ok := c.MetaServers[i].Store().(interface{ Close() error }); ok {
		closer.Close()
	}
	store, _, err := buildMetaStore(c.cfg, i)
	if err != nil {
		return fmt.Errorf("cluster: recovering metadata provider %d: %w", i, err)
	}
	ms := meta.NewServerWithStore(c.Network, c.metaAddrs[i], store)
	ms.SetRPCObserver(c.serverObserver("metadata"))
	ms.SetRPCTracer(c.roleTracer("metadata", fmt.Sprintf("mp%d", i)))
	if err := ms.Start(); err != nil {
		return fmt.Errorf("cluster: restarting metadata provider %d: %w", i, err)
	}
	c.MetaServers[i] = ms
	return nil
}

// buildVMManager opens version-manager instance i's durable state when cfg
// names a data dir (a fresh volatile manager otherwise). Instance 0 keeps
// the pre-HA directory name so existing deployments upgrade in place;
// standbys journal beside it.
func buildVMManager(cfg Config, i int) (*vmanager.Manager, string, error) {
	if cfg.DataDir == "" {
		m := vmanager.NewManager()
		m.SetLeaseTTL(cfg.LeaseTTL)
		return m, "", nil
	}
	name := "vmanager"
	if i > 0 {
		name = fmt.Sprintf("vmanager-sb%d", i)
	}
	dir := filepath.Join(cfg.DataDir, name)
	m, err := vmanager.OpenManager(dir, vmanager.Options{Fsync: !cfg.NoFsyncWAL})
	if err != nil {
		return nil, "", fmt.Errorf("cluster: opening version manager journal %d: %w", i, err)
	}
	m.SetLeaseTTL(cfg.LeaseTTL)
	return m, dir, nil
}

// enableVMHA joins version-manager instance i to the replicated group.
// Caller guarantees every instance's server is already reachable.
func (c *Cluster) enableVMHA(i int, bootstrap bool) error {
	cli := c.vmReplClients[i]
	transport := func(addr string, req *vmanager.ReplicateReq) (*vmanager.ReplicateResp, error) {
		var resp vmanager.ReplicateResp
		if err := cli.Call(addr, vmanager.MethodReplicate, req, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	peers := make([]string, 0, len(c.vmAddrs)-1)
	for j, a := range c.vmAddrs {
		if j != i {
			peers = append(peers, a)
		}
	}
	return c.VMs[i].Manager().EnableHA(vmanager.HAConfig{
		Self:          c.vmAddrs[i],
		Peers:         peers,
		LeadershipTTL: c.cfg.VMLeadershipTTL,
		Quorum:        !c.cfg.VMReplAsync,
		Bootstrap:     bootstrap,
		Transport:     transport,
	})
}

// buildMetaStore opens metadata provider i's node store: persistent under
// a data dir, in-RAM otherwise.
func buildMetaStore(cfg Config, i int) (meta.ServerStore, string, error) {
	if cfg.DataDir == "" {
		return meta.NewMemStore(), "", nil
	}
	dir := filepath.Join(cfg.DataDir, fmt.Sprintf("meta%d", i))
	st, err := meta.NewPersistentStore(dir, !cfg.NoFsyncWAL)
	if err != nil {
		return nil, "", fmt.Errorf("cluster: opening metadata node log %d: %w", i, err)
	}
	return st, dir, nil
}

// Close tears the whole deployment down (gracefully: durable state is
// flushed, unlike the Kill* crash simulations).
func (c *Cluster) Close() {
	if c.metricsHTTP != nil {
		c.metricsHTTP.Close()
		c.metricsHTTP = nil
	}
	if c.maintLoop != nil {
		c.maintLoop.Stop()
		c.maintLoop = nil
	}
	if c.maintClient != nil {
		c.maintClient.Close()
	}
	if c.leaseStop != nil {
		close(c.leaseStop)
		<-c.leaseDone
		c.leaseStop = nil
	}
	if c.leaseClient != nil {
		c.leaseClient.Close()
	}
	c.clientMu.Lock()
	clients := c.clients
	c.clients = nil
	c.clientMu.Unlock()
	for _, cli := range clients {
		cli.Close()
	}
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	for _, p := range c.Providers {
		p.Close()
	}
	for _, hb := range c.hbClients {
		hb.Close()
	}
	for _, m := range c.MetaServers {
		m.Close()
		if closer, ok := m.Store().(interface{ Close() error }); ok {
			closer.Close()
		}
	}
	if c.PM != nil {
		c.PM.Close()
	}
	// Halt every HA manager before closing any journal: a live leader's
	// replicator or a standby's takeover racing a peer's journal close
	// would be shutdown noise, not a real deployment event.
	if len(c.VMs) > 1 {
		for _, vm := range c.VMs {
			vm.Manager().Halt()
		}
	}
	for _, vm := range c.VMs {
		vm.Close()
		vm.Manager().Close()
	}
	for _, cli := range c.vmReplClients {
		cli.Close()
	}
}
