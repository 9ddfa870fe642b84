// Package cluster assembles a complete BlobSeer deployment — version
// manager, provider manager, N data providers, M metadata providers — in
// one process, over either the simulated fabric (the Grid'5000 stand-in)
// or real TCP loopback. It is the "testbed in a box" the fault,
// maintenance, trace and soak suites run on.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/node"
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
	// FullnessWatermark is the fullness above which a provider counts as
	// overfull, for both planes that act on it: clients stop retrying
	// placements onto it (core.Config.FullnessWatermark) and the rebalancer
	// drains it (maint.Config.HighWater). Default 0.85; must be in (0, 1]
	// when set. RepairLowWater is the fullness a drain aims for (default
	// 0.8 × the watermark).
	FullnessWatermark float64
	RepairLowWater    float64
	// ScrubBytesPerSec bounds the scrubber's aggregate verification rate
	// (default 32 MiB/s; maint.NoRateLimit disables pacing — the right
	// choice for tests).
	ScrubBytesPerSec uint64
	// LeaseTTL enables write leases: Assign grants each version this TTL,
	// clients renew while uploading, and the expiry loop (every TTL/4)
	// aborts and identity-weaves versions whose lease lapses — so a writer
	// killed between Assign and Commit un-wedges within a TTL, no restart
	// needed. Zero disables leases (the seed behavior).
	LeaseTTL time.Duration
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

// Cluster is a running deployment. Every role in it was started by an
// internal/node constructor — the same ones cmd/blobseerd calls — and is
// held as that constructor's handle.
type Cluster struct {
	cfg     Config
	env     *node.Env
	Network rpc.Network
	Fabric  *netsim.Fabric

	// VM is the primary version manager (VMs[0]); VMs holds the whole
	// replicated group when Config.VMStandbys > 0. Instance identity is
	// positional and survives kill/restart — leadership moves between
	// instances, indexes never do.
	VM          *node.VManager
	VMs         []*node.VManager
	PM          *node.PManager
	Providers   []*node.Provider
	MetaServers []*node.Metadata

	// srvMu guards the restartable handle slots (VM/VMs, MetaServers,
	// Providers) against concurrent Kill/Restart/Close; the addresses
	// never change.
	srvMu     sync.Mutex
	vmAddrs   []string
	metaAddrs []string
	provAddrs []string

	// clientMu guards clients/nextClient: tests spin up clients from
	// concurrent goroutines.
	clientMu   sync.Mutex
	clients    []*core.Client
	nextClient int

	// Maint is the deployment's maintenance engine — reclaim, replicate
	// and verify (always built; the background loop only runs the actions
	// whose Config interval is > 0).
	Maint *node.Maint
}

// Registry returns the deployment's metrics registry (nil unless
// Config.Metrics or Config.MetricsListen enabled the observability
// plane).
func (c *Cluster) Registry() *metrics.Registry { return c.env.Registry }

// MetricsAddr returns the bound /metrics HTTP address ("" unless
// Config.MetricsListen was set).
func (c *Cluster) MetricsAddr() string { return c.env.MetricsAddr() }

// Traces returns the deployment's span recorder (nil when tracing is
// disabled via a negative Config.TraceSample).
func (c *Cluster) Traces() *trace.Recorder { return c.env.Traces }

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
	if cfg.VMStandbys < 0 {
		cfg.VMStandbys = 0
	}
	if cfg.TraceSample == 0 {
		cfg.TraceSample = defaultTraceSample
	}
	if cfg.TraceSlow == 0 {
		cfg.TraceSlow = defaultTraceSlow
	}
	if cfg.Fabric == nil && !cfg.UseTCP {
		// A default, unshaped fabric so fault injection (KillProvider /
		// ReviveProvider) works even when no shaping was requested.
		cfg.Fabric = netsim.NewFabric(netsim.Config{})
	}
	var network rpc.Network = rpc.NewSimNetwork(cfg.Fabric)
	if cfg.UseTCP {
		network = rpc.NewTCPNetwork()
	}
	c := &Cluster{cfg: cfg, Network: network, Fabric: cfg.Fabric}
	c.env = node.NewEnv(node.EnvConfig{
		Network:          network,
		Metrics:          cfg.Metrics,
		MetricsListen:    cfg.MetricsListen,
		MetricsExemplars: cfg.MetricsExemplars,
		Pprof:            cfg.Pprof,
		TraceSample:      cfg.TraceSample,
		TraceSlow:        cfg.TraceSlow,
		CallTimeout:      cfg.CallTimeout,
	})
	if err := c.start(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// start brings every role up: the provider manager and the metadata
// providers first (they depend on nobody), then the version managers
// (whose lease weaver dials the metadata providers), the data providers
// (which register with the provider manager) and the maintenance plane.
func (c *Cluster) start() error {
	cfg := c.cfg
	addr := func(format string, args ...any) string {
		if cfg.UseTCP {
			return "127.0.0.1:0"
		}
		return fmt.Sprintf(format, args...)
	}
	// dir places a role's durable state under the data dir (none without).
	dir := func(format string, args ...any) string {
		if cfg.DataDir == "" {
			return ""
		}
		return filepath.Join(cfg.DataDir, fmt.Sprintf(format, args...))
	}

	pm, err := node.StartPManager(c.env, node.PManagerSpec{
		Listen: addr("pm"), Strategy: cfg.Strategy, HeartbeatTimeout: cfg.HeartbeatTimeout,
	})
	if err != nil {
		return fmt.Errorf("cluster: provider manager: %w", err)
	}
	c.PM = pm

	for i := 0; i < cfg.MetaProviders; i++ {
		ms, err := node.StartMetadata(c.env, node.MetadataSpec{
			Listen: addr("mp%d", i), Dir: dir("meta%d", i), Fsync: !cfg.NoFsyncWAL,
		})
		if err != nil {
			return fmt.Errorf("cluster: metadata provider %d: %w", i, err)
		}
		c.MetaServers = append(c.MetaServers, ms)
		c.metaAddrs = append(c.metaAddrs, ms.Addr())
	}

	// Version managers: journaled under a data dir; a replicated group of
	// 1+VMStandbys members when standbys are asked for. Instance 0 keeps
	// the pre-HA names so existing deployments upgrade in place; standbys
	// journal beside it.
	repl := "quorum"
	if cfg.VMReplAsync {
		repl = "async"
	}
	for i := 0; i <= cfg.VMStandbys; i++ {
		spec := node.VManagerSpec{
			Listen:   addr("vm"),
			Dir:      dir("vmanager"),
			Fsync:    !cfg.NoFsyncWAL,
			LeaseTTL: cfg.LeaseTTL,
			HATTL:    cfg.VMLeadershipTTL,
			Repl:     repl,
			Maint:    node.MaintSpec{Meta: c.metaAddrs, MetaRepl: cfg.MetaReplication},
		}
		if i > 0 {
			spec.Listen, spec.Dir = addr("vm-sb%d", i), dir("vmanager-sb%d", i)
		}
		vm, err := node.StartVManager(c.env, spec)
		if err != nil {
			return fmt.Errorf("cluster: version manager %d: %w", i, err)
		}
		c.VMs = append(c.VMs, vm)
		c.vmAddrs = append(c.vmAddrs, vm.Addr())
	}
	c.VM = c.VMs[0]
	// The group forms only now: with TCP ":0" its addresses were unknown
	// until every member was up. Instance 0, the only one that may
	// bootstrap, joins last (see node.VManager.Join).
	for i := cfg.VMStandbys; cfg.VMStandbys > 0 && i >= 0; i-- {
		peers := slices.Delete(slices.Clone(c.vmAddrs), i, i+1)
		if err := c.VMs[i].Join(peers, i == 0); err != nil {
			return fmt.Errorf("cluster: version manager %d: %w", i, err)
		}
	}

	for i := 0; i < cfg.DataProviders; i++ {
		store, err := cfg.StoreFactory(i)
		if err != nil {
			return fmt.Errorf("cluster: store for provider %d: %w", i, err)
		}
		spec := node.ProviderSpec{Listen: addr("dp%d", i), PM: c.PM.Addr(), Heartbeat: cfg.HeartbeatInterval, Store: store}
		// Durable deployments get durable provider sidecars too: put ages
		// and tombstones survive Kill/Revive.
		spec.SidecarDir, spec.FsyncSidecar = dir("prov%d-sidecar", i), !cfg.NoFsyncWAL
		if cfg.ProviderCapacity != nil {
			spec.CapacityBytes = cfg.ProviderCapacity(i)
		}
		dp, err := node.StartProvider(c.env, spec)
		if err != nil {
			return fmt.Errorf("cluster: data provider %d: %w", i, err)
		}
		c.Providers = append(c.Providers, dp)
		c.provAddrs = append(c.provAddrs, dp.Addr())
	}

	c.Maint, err = node.NewMaint(c.env, node.MaintSpec{
		VM:        c.vmAddrs,
		PM:        c.PM.Addr(),
		Meta:      c.metaAddrs,
		MetaRepl:  cfg.MetaReplication,
		Intervals: maint.Intervals{Reclaim: cfg.GCInterval, Replicate: cfg.RepairInterval, Verify: cfg.ScrubInterval},
		Tuning: maint.Config{
			OrphanGrace:      cfg.GCOrphanGrace,
			HighWater:        cfg.FullnessWatermark,
			LowWater:         cfg.RepairLowWater,
			ScrubBytesPerSec: cfg.ScrubBytesPerSec,
		},
	})
	if err != nil {
		return fmt.Errorf("cluster: maintenance plane: %w", err)
	}
	return c.env.ServeMetrics()
}

// RunLeaseExpiry executes one lease-expiry pass synchronously, returning
// how many versions were aborted. Every group member is offered the pass —
// each gates internally on being a live leader (a standby expiring versions
// on its own would diverge from the leader's journal), so exactly one acts.
func (c *Cluster) RunLeaseExpiry() (total int, err error) {
	c.srvMu.Lock()
	vms := slices.Clone(c.VMs)
	c.srvMu.Unlock()
	for _, vm := range vms {
		n, e := vm.RunLeaseExpiry()
		total, err = total+n, errors.Join(err, e)
	}
	return total, err
}

// CorruptChunk flips one payload byte of provider i's copy of key at the
// given offset, bypassing every write path — the fault-injection hook the
// integrity tests build on. The provider's store engine must support
// corruption (all the built-in engines do).
func (c *Cluster) CorruptChunk(i int, key chunk.Key, off uint64) error {
	if i < 0 || i >= len(c.Providers) {
		return fmt.Errorf("cluster: no provider %d", i)
	}
	c.srvMu.Lock()
	store := c.Providers[i].Store()
	c.srvMu.Unlock()
	cor, ok := store.(chunk.Corruptor)
	if !ok {
		return fmt.Errorf("cluster: provider %d's store (%T) cannot inject corruption", i, store)
	}
	return cor.Corrupt(key, off)
}

// VMAddr returns the primary version manager's address (instance 0; with
// HA this is whoever bootstrapped, not necessarily the current leader).
func (c *Cluster) VMAddr() string { return c.vmAddrs[0] }

// VMAddrs returns every version-manager instance's address, in instance
// order (length 1 without HA).
func (c *Cluster) VMAddrs() []string { return slices.Clone(c.vmAddrs) }

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
	i := max(c.LeaderIndex(), 0)
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	return c.VMs[i].Manager()
}

// PMAddr returns the provider manager's address.
func (c *Cluster) PMAddr() string { return c.PM.Addr() }

// ProviderAddrs returns the data provider addresses, in start order.
func (c *Cluster) ProviderAddrs() []string { return slices.Clone(c.provAddrs) }

// MetaAddrs returns the metadata provider addresses.
func (c *Cluster) MetaAddrs() []string { return slices.Clone(c.metaAddrs) }

// ClientOptions tune clients created by NewClient.
type ClientOptions struct {
	// Name identifies the client's simulated machine (auto-assigned when
	// empty).
	Name string
	// MetaCacheNodes enables the client-side metadata cache when > 0.
	MetaCacheNodes int
	// ParallelIO bounds concurrent chunk transfers (default 16).
	ParallelIO int
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
	cli, err := node.NewClient(c.env, core.Config{
		ClientName:        name,
		VMAddr:            c.VMAddr(),
		VMAddrs:           c.VMAddrs(),
		PMAddr:            c.PMAddr(),
		MetaProviders:     c.metaAddrs,
		MetaReplication:   c.cfg.MetaReplication,
		MetaCacheNodes:    opts.MetaCacheNodes,
		ParallelIO:        opts.ParallelIO,
		FullnessWatermark: c.cfg.FullnessWatermark,
	})
	if err != nil {
		return nil, err
	}
	c.clientMu.Lock()
	c.clients = append(c.clients, cli)
	c.clientMu.Unlock()
	return cli, nil
}

// kill crashes slot i of a role's handles (see the handles' Kill: RPC dark,
// nothing flushed, no loop left running inside the test process); restart
// replaces it with the same spec started again on the same address and
// durable state. Out-of-range kills are ignored.
func kill[H interface{ Kill() }](c *Cluster, slots []H, i int) {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if i >= 0 && i < len(slots) {
		slots[i].Kill()
	}
}

func restart[H interface{ Restart() (H, error) }](c *Cluster, role string, slots []H, i int) error {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if i < 0 || i >= len(slots) {
		return fmt.Errorf("cluster: no %s %d", role, i)
	}
	h, err := slots[i].Restart()
	if err != nil {
		return fmt.Errorf("cluster: restarting %s %d: %w", role, i, err)
	}
	slots[i] = h
	return nil
}

// setDown injects a provider fault at the simulated fabric, reporting
// false over TCP, where there is none and the handle is killed instead.
func (c *Cluster) setDown(i int, down bool) bool {
	if c.cfg.UseTCP {
		return false
	}
	if i >= 0 && i < len(c.provAddrs) {
		c.Fabric.SetDown(c.provAddrs[i], down)
	}
	return true
}

// KillProvider simulates a crash of data provider i. On the simulated
// fabric the node drops off the network (in-flight and future requests
// fail); over TCP the provider is killed outright. Either way
// ReviveProvider brings it back.
func (c *Cluster) KillProvider(i int) {
	if !c.setDown(i, true) {
		kill(c, c.Providers, i)
	}
}

// ReviveProvider undoes KillProvider: on the simulated fabric the node
// rejoins the network; over TCP the provider is restarted on the same
// address, chunk store (the "disk" that survived the crash) and sidecar
// (put ages and tombstones survive too), and re-registers with the
// provider manager.
func (c *Cluster) ReviveProvider(i int) error {
	if i >= 0 && i < len(c.provAddrs) && c.setDown(i, false) {
		return nil
	}
	return restart(c, "provider", c.Providers, i)
}

// KillVM crashes the primary version manager (instance 0); see
// KillVMIndex.
func (c *Cluster) KillVM() { c.KillVMIndex(0) }

// KillVMIndex crashes version-manager instance i the way a kill -9 would.
func (c *Cluster) KillVMIndex(i int) { kill(c, c.VMs, i) }

// RestartVM brings the primary version manager (instance 0) back; see
// RestartVMIndex.
func (c *Cluster) RestartVM() error { return c.RestartVMIndex(0) }

// RestartVMIndex brings version-manager instance i back on its original
// address, recovering all state from the journal when the deployment is
// durable (with a fresh empty manager otherwise, which is what a RAM-only
// restart really loses). With HA it rejoins as a standby.
func (c *Cluster) RestartVMIndex(i int) error {
	err := restart(c, "version manager", c.VMs, i)
	c.srvMu.Lock()
	c.VM = c.VMs[0]
	c.srvMu.Unlock()
	return err
}

// KillMeta crashes metadata provider i (RPC dark, nothing flushed).
func (c *Cluster) KillMeta(i int) { kill(c, c.MetaServers, i) }

// RestartMeta brings metadata provider i back on its original address,
// replaying its node log when the deployment is durable.
func (c *Cluster) RestartMeta(i int) error { return restart(c, "metadata provider", c.MetaServers, i) }

// Close tears the whole deployment down (gracefully: durable state is
// flushed, unlike the Kill* crash simulations).
func (c *Cluster) Close() {
	c.env.Close()
	if c.Maint != nil {
		c.Maint.Close()
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
	for _, m := range c.MetaServers {
		m.Close()
	}
	if c.PM != nil {
		c.PM.Close()
	}
	// Halt the whole group before closing any member: each member's Close
	// halts itself first, but a standby would read the leader's orderly
	// exit as a death and start a takeover a moment before its own turn.
	for _, vm := range c.VMs {
		vm.Manager().Halt()
	}
	for _, vm := range c.VMs {
		vm.Close()
	}
}
