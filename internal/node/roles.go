package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// PManagerSpec describes a provider manager process: its chunk placement
// strategy ("" = roundrobin) and how long a silent provider stays live.
type PManagerSpec struct {
	Listen           string
	Strategy         string
	HeartbeatTimeout time.Duration
}

// PManager is a running provider manager. It keeps no durable state, so a
// crash and a shutdown are the same thing.
type PManager struct{ *pmanager.Server }

// StartPManager serves a provider manager.
func StartPManager(env *Env, spec PManagerSpec) (*PManager, error) {
	s, err := pmanager.NewServer(env.Network, spec.Listen, spec.Strategy, spec.HeartbeatTimeout)
	if err != nil {
		return nil, err
	}
	if err := env.serve("pmanager", s); err != nil {
		return nil, err
	}
	register(env, "pmanager", s.Manager(), func(get func() *pmanager.Manager) {
		obs.RegisterPManager(env.Registry, get)
	})
	return &PManager{s}, nil
}

// Kill crashes the provider manager (RPC dark).
func (p *PManager) Kill() { p.Close() }

// MetadataSpec describes a metadata provider process. Dir is the node-log
// directory, replayed on start; empty keeps the nodes in RAM (they die
// with the process). Fsync as for VManagerSpec.
type MetadataSpec struct {
	Listen string
	Dir    string
	Fsync  bool
}

// Metadata is a running metadata provider.
type Metadata struct {
	*meta.Server
	env  *Env
	spec MetadataSpec
}

// StartMetadata opens the node store and serves it.
func StartMetadata(env *Env, spec MetadataSpec) (*Metadata, error) {
	var store meta.ServerStore = meta.NewMemStore()
	if spec.Dir != "" {
		ps, err := meta.NewPersistentStore(spec.Dir, spec.Fsync)
		if err != nil {
			return nil, fmt.Errorf("node: opening metadata node log %s: %w", spec.Dir, err)
		}
		store = ps
	}
	m := &Metadata{Server: meta.NewServerWithStore(env.Network, spec.Listen, store), env: env, spec: spec}
	if err := env.serve("metadata", m.Server); err != nil {
		m.Close()
		return nil, err
	}
	m.spec.Listen = m.Addr()
	register(env, "metadata/"+m.Addr(), m.Server, func(get func() *meta.Server) {
		obs.RegisterMeta(env.Registry, m.Addr(), get)
	})
	return m, nil
}

// Close stops serving and releases the node log.
func (m *Metadata) Close() {
	m.Server.Close()
	if ps, ok := m.Store().(*meta.PersistentStore); ok {
		ps.Close()
	}
}

// Kill crashes the metadata provider: RPC dark, and the node log's fd
// released for the reason VManager.Kill releases the journal's — no two
// writers on one WAL once the spec is started again.
func (m *Metadata) Kill() { m.Close() }

// Restart kills the provider if it still runs and starts its spec again on
// the address it had bound.
func (m *Metadata) Restart() (*Metadata, error) {
	m.Kill()
	return StartMetadata(m.env, m.spec)
}

// ProviderSpec describes a data provider process.
type ProviderSpec struct {
	Listen string
	// PM is the provider manager to register with and then heartbeat to
	// every Heartbeat.
	PM        string
	Heartbeat time.Duration
	// Store is the chunk engine. Close closes it; Kill leaves it open — it
	// is the disk that survives the crash — so the same spec can be
	// started again over it.
	Store chunk.Store
	// Options: the durable sidecar (put ages, tombstones and digests
	// survive a restart) and the declared capacity.
	provider.Options
}

// Provider is a running data provider: the chunk server plus its
// registration and heartbeats.
type Provider struct {
	*provider.Server
	env  *Env
	spec ProviderSpec
	hb   *rpc.Client
}

// StartProvider serves the store, registers with the provider manager and
// starts heartbeating.
func StartProvider(env *Env, spec ProviderSpec) (*Provider, error) {
	if spec.PM == "" || spec.Store == nil {
		return nil, errors.New("node: a data provider requires the provider manager address (-pm) and a chunk store")
	}
	s, err := provider.NewServerWithOptions(env.Network, spec.Listen, spec.Store, spec.Options)
	if err != nil {
		return nil, fmt.Errorf("node: opening data provider at %s: %w", spec.Listen, err)
	}
	if err := env.serve("provider", s); err != nil {
		s.Close()
		return nil, err
	}
	register(env, "provider/"+s.Addr(), s, func(get func() *provider.Server) {
		obs.RegisterProvider(env.Registry, s.Addr(), get)
	})
	// Registration and heartbeats go through a client sourced at the
	// provider's own address, so a provider the fabric marks down really
	// goes silent and ages out of the provider manager.
	spec.Listen = s.Addr()
	p := &Provider{Server: s, env: env, spec: spec, hb: env.client("provider", s.Addr(), false)}
	if err := p.hb.CallCtx(context.Background(), spec.PM, pmanager.MethodRegister, &pmanager.RegisterReq{Addr: s.Addr()}, &pmanager.Ack{}); err != nil {
		p.Kill()
		return nil, fmt.Errorf("node: registering provider %s with %s: %w", s.Addr(), spec.PM, err)
	}
	s.StartHeartbeats(p.hb, spec.PM, spec.Heartbeat)
	return p, nil
}

// Kill crashes the provider: heartbeats stop, the RPC server goes dark and
// the sidecar log is released, so a replacement may reopen and replay it.
// The chunk store stays open.
func (p *Provider) Kill() {
	p.Server.Close()
	p.hb.Close()
}

// Restart kills the provider if it still runs and starts its spec again on
// the address it had bound, over the same chunk store.
func (p *Provider) Restart() (*Provider, error) {
	p.Kill()
	return StartProvider(p.env, p.spec)
}

// Close is Kill plus closing the chunk store.
func (p *Provider) Close() {
	p.Kill()
	p.Store().Close()
}

// MaintSpec describes the maintenance plane of a deployment (see
// internal/maint).
type MaintSpec struct {
	// VM lists the version manager group, PM is the provider manager, Meta
	// the metadata providers and MetaRepl their replication degree.
	VM       []string
	PM       string
	Meta     []string
	MetaRepl int
	// Intervals schedules reclaim, replicate and verify passes; a zero
	// interval leaves the action to on-demand passes (Engine.Run).
	Intervals maint.Intervals
	// Tuning carries the actions' settings; its Deployment is filled in
	// from the addresses above.
	Tuning maint.Config
}

// validate checks what a loop needs; standalone is the maintenance daemon,
// which has nothing to do without a schedule.
func (s *MaintSpec) validate(standalone bool) error {
	scheduled := s.Intervals != (maint.Intervals{})
	switch hw := s.Tuning.HighWater; {
	case hw != 0 && (hw <= 0 || hw > 1):
		return fmt.Errorf("node: fullness watermark (-fullness-watermark) %v out of range (0, 1]", hw)
	case standalone && (!scheduled || len(s.VM) == 0):
		return errors.New("node: the maintenance role requires the version manager address (-vm) and at least one of the reclaim (-gc-interval), replicate (-repair-interval) and verify (-scrub-interval) intervals")
	case scheduled && (s.PM == "" || len(s.Meta) == 0):
		return errors.New("node: maintenance passes require the provider manager (-pm) and metadata provider (-meta) addresses to reach the deployment")
	}
	return nil
}

// Maint is a running maintenance plane: the engine (which also runs passes
// on demand, whatever the loop schedules), its RPC client and the loop.
type Maint struct {
	*maint.Engine
	cli  *rpc.Client
	loop *maint.Loop
	once sync.Once
}

// StartMaint runs the maintenance daemon: the engine plus a loop over the
// spec's intervals, of which at least one must be set.
func StartMaint(env *Env, spec MaintSpec) (*Maint, error) {
	if err := spec.validate(true); err != nil {
		return nil, err
	}
	return NewMaint(env, spec)
}

// NewMaint builds the maintenance engine for a deployment and starts the
// loop for whatever intervals are set — none is fine for a harness that
// runs its passes on demand.
func NewMaint(env *Env, spec MaintSpec) (*Maint, error) {
	cli := env.client("maint", "maint", true)
	cfg := spec.Tuning
	cfg.Deployment = maint.Deployment{
		RPC:  cli,
		Meta: meta.NewClient(cli, spec.Meta, spec.MetaRepl, 0),
		VM:   vmanager.NewCaller(cli, spec.VM),
		PM:   spec.PM,
	}
	eng, err := maint.New(cfg)
	if err != nil {
		cli.Close()
		return nil, err
	}
	loop := maint.StartLoop(eng, spec.Intervals, func(a maint.Action, st vmanager.Counters, err error) {
		// Pass errors are not fatal (whatever failed is retried next pass)
		// but must not vanish, and found corruption is worth a line even
		// when the pass healed it. All planes in the summary: a verify pass
		// that quarantined copies also ran replicate.
		if err != nil || st[vmanager.ScrubCorruptFound] > 0 {
			log.Printf("blobseer: maint %s pass: err=%v (%s)", a, err, maint.All.Summary(&st, "; "))
		}
	})
	return &Maint{Engine: eng, cli: cli, loop: loop}, nil
}

// Addr reports that the maintenance plane serves no RPCs.
func (m *Maint) Addr() string { return "(no RPC listener)" }

// Close stops the loop (waiting out a pass in progress) and the client.
func (m *Maint) Close() {
	m.once.Do(func() {
		m.loop.Stop()
		m.cli.Close()
	})
}

// Kill is Close: the plane holds no state a crash could lose.
func (m *Maint) Kill() { m.Close() }
