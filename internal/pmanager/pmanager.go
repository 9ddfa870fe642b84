// Package pmanager implements BlobSeer's provider manager: the component
// that "decides which chunks are stored on which data providers when
// writes or appends are issued" (§I-B2). The chunk distribution strategy
// is configurable (§I-B3 "data striping") — round-robin for load
// balancing, random scatter, or least-loaded placement.
package pmanager

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Method names served by the provider manager. Heartbeat is declared in
// package provider to keep the dependency one-way.
const (
	MethodRegister  = "pm.register"
	MethodAllocate  = "pm.allocate"
	MethodProviders = "pm.providers"
	MethodReport    = "pm.report"
)

// Strategy names accepted by NewManager.
const (
	StrategyRoundRobin  = "roundrobin"
	StrategyRandom      = "random"
	StrategyLeastLoaded = "leastloaded"
)

// ErrNoProviders is returned when no live provider can host a chunk.
var ErrNoProviders = errors.New("pmanager: no live data providers")

// RegisterReq announces a new provider.
type RegisterReq struct {
	Addr string
}

// Encode implements wire.Message.
func (r *RegisterReq) Encode(e *wire.Encoder) { e.PutString(r.Addr) }

// Decode implements wire.Message.
func (r *RegisterReq) Decode(d *wire.Decoder) { r.Addr = d.String() }

// AllocateReq asks for placements for NumChunks chunks, each replicated
// Replication times. Exclude lists providers placement must avoid — a
// writer retrying after a replica set failed entirely sends the failed
// addresses so the fresh allocation cannot hand back the very providers
// that just refused the chunk.
type AllocateReq struct {
	NumChunks   uint32
	Replication uint32
	Exclude     []string
}

// Encode implements wire.Message.
func (r *AllocateReq) Encode(e *wire.Encoder) {
	e.PutU32(r.NumChunks)
	e.PutU32(r.Replication)
	e.PutU32(uint32(len(r.Exclude)))
	for _, a := range r.Exclude {
		e.PutString(a)
	}
}

// Decode implements wire.Message.
func (r *AllocateReq) Decode(d *wire.Decoder) {
	r.NumChunks = d.U32()
	r.Replication = d.U32()
	cnt := d.U32()
	r.Exclude = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		r.Exclude = append(r.Exclude, d.String())
	}
}

// AllocateResp returns one replica set per chunk.
type AllocateResp struct {
	Sets [][]string
}

// Encode implements wire.Message.
func (r *AllocateResp) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Sets)))
	for _, set := range r.Sets {
		e.PutU32(uint32(len(set)))
		for _, a := range set {
			e.PutString(a)
		}
	}
}

// Decode implements wire.Message.
func (r *AllocateResp) Decode(d *wire.Decoder) {
	n := d.U32()
	r.Sets = nil
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m := d.U32()
		set := make([]string, 0, m)
		for j := uint32(0); j < m && d.Err() == nil; j++ {
			set = append(set, d.String())
		}
		r.Sets = append(r.Sets, set)
	}
}

// ProvidersResp lists live provider addresses.
type ProvidersResp struct {
	Addrs []string
}

// Encode implements wire.Message.
func (r *ProvidersResp) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Addrs)))
	for _, a := range r.Addrs {
		e.PutString(a)
	}
}

// Decode implements wire.Message.
func (r *ProvidersResp) Decode(d *wire.Decoder) {
	n := d.U32()
	r.Addrs = nil
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		r.Addrs = append(r.Addrs, d.String())
	}
}

// Ack is the empty acknowledgment.
type Ack = provider.Ack

// ProviderStatus is one provider's view in a ReportResp: the repair
// engine's input for liveness and fullness decisions.
type ProviderStatus struct {
	Addr      string
	Chunks    uint64
	Bytes     uint64
	CapBytes  uint64 // 0 = capacity unknown
	FreeBytes uint64
	// SinceBeatMs is how long ago the provider last heartbeat (ms).
	SinceBeatMs uint64
	// Live reflects the manager's heartbeat timeout. A registered provider
	// that is not live is dead: its replicas are repair work.
	Live bool
}

func (p *ProviderStatus) encode(e *wire.Encoder) {
	e.PutString(p.Addr)
	e.PutU64(p.Chunks)
	e.PutU64(p.Bytes)
	e.PutU64(p.CapBytes)
	e.PutU64(p.FreeBytes)
	e.PutU64(p.SinceBeatMs)
	e.PutBool(p.Live)
}

func (p *ProviderStatus) decode(d *wire.Decoder) {
	p.Addr = d.String()
	p.Chunks = d.U64()
	p.Bytes = d.U64()
	p.CapBytes = d.U64()
	p.FreeBytes = d.U64()
	p.SinceBeatMs = d.U64()
	p.Live = d.Bool()
}

// ReportResp lists every registered provider's status, live or not.
// Fullness scoring belongs to the consumers (the repair engine projects
// load as it plans moves; Allocate scores via provInfo.fullness), so the
// status carries only the raw byte/capacity facts.
type ReportResp struct {
	Providers []ProviderStatus
}

// Encode implements wire.Message.
func (r *ReportResp) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Providers)))
	for i := range r.Providers {
		r.Providers[i].encode(e)
	}
}

// Decode implements wire.Message.
func (r *ReportResp) Decode(d *wire.Decoder) {
	n := d.U32()
	r.Providers = nil
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var p ProviderStatus
		p.decode(d)
		r.Providers = append(r.Providers, p)
	}
}

type provInfo struct {
	addr      string
	chunks    uint64
	bytes     uint64
	capBytes  uint64
	freeBytes uint64
	lastSeen  time.Time
}

// fullness mirrors ProviderStatus.Fullness on the manager's own records.
func (p *provInfo) fullness() float64 {
	if p.capBytes == 0 {
		return 0
	}
	f := float64(p.bytes) / float64(p.capBytes)
	if f > 1 {
		f = 1
	}
	return f
}

// Manager tracks providers and computes placements.
type Manager struct {
	strategy  string
	hbTimeout time.Duration

	mu        sync.Mutex
	providers map[string]*provInfo
	rrCounter uint64
	rng       *rand.Rand
	now       func() time.Time
}

// NewManager creates a manager using the named strategy ("roundrobin",
// "random", "leastloaded"). hbTimeout is how long a provider may stay
// silent before being considered dead (0 = 2s).
func NewManager(strategy string, hbTimeout time.Duration) (*Manager, error) {
	switch strategy {
	case StrategyRoundRobin, StrategyRandom, StrategyLeastLoaded:
	case "":
		strategy = StrategyRoundRobin
	default:
		return nil, fmt.Errorf("pmanager: unknown strategy %q", strategy)
	}
	if hbTimeout == 0 {
		hbTimeout = 2 * time.Second
	}
	return &Manager{
		strategy:  strategy,
		hbTimeout: hbTimeout,
		providers: make(map[string]*provInfo),
		rng:       rand.New(rand.NewSource(1)),
		now:       time.Now,
	}, nil
}

// Register adds a provider (idempotent); registration counts as a beat.
func (m *Manager) Register(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.providers[addr]
	if !ok {
		p = &provInfo{addr: addr}
		m.providers[addr] = p
	}
	p.lastSeen = m.now()
}

// Heartbeat refreshes a provider's liveness, load, and free space.
// Unknown providers are auto-registered (a restarted provider re-appears
// transparently).
func (m *Manager) Heartbeat(hb *provider.HeartbeatReq) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.providers[hb.Addr]
	if !ok {
		p = &provInfo{addr: hb.Addr}
		m.providers[hb.Addr] = p
	}
	p.chunks = hb.Chunks
	p.bytes = hb.Bytes
	p.capBytes = hb.CapBytes
	p.freeBytes = hb.FreeBytes
	p.lastSeen = m.now()
}

// live returns the usable providers: those with a fresh heartbeat.
func (m *Manager) live() []*provInfo {
	cutoff := m.now().Add(-m.hbTimeout)
	var ok []*provInfo
	for _, p := range m.providers {
		if !p.lastSeen.Before(cutoff) {
			ok = append(ok, p)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].addr < ok[j].addr })
	return ok
}

// Providers lists the live provider addresses.
func (m *Manager) Providers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	live := m.live()
	out := make([]string, len(live))
	for i, p := range live {
		out[i] = p.addr
	}
	return out
}

// Report returns the status of every registered provider — live or
// silent — sorted by address. This is the repair engine's membership
// and fullness view: a registered provider past the heartbeat timeout is
// dead, and its replicas are repair work.
func (m *Manager) Report() []ProviderStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	cutoff := now.Add(-m.hbTimeout)
	out := make([]ProviderStatus, 0, len(m.providers))
	for _, p := range m.providers {
		since := now.Sub(p.lastSeen)
		if since < 0 {
			since = 0
		}
		out = append(out, ProviderStatus{
			Addr:        p.addr,
			Chunks:      p.chunks,
			Bytes:       p.bytes,
			CapBytes:    p.capBytes,
			FreeBytes:   p.freeBytes,
			SinceBeatMs: uint64(since / time.Millisecond),
			Live:        !p.lastSeen.Before(cutoff),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// allocWatermark is the fullness above which a capacity-declaring
// provider stops receiving new placements (unless skipping it would leave
// nothing): writes should not pile onto a nearly full disk while the
// rebalancer is draining it.
const allocWatermark = 0.95

// Allocate computes replica sets for numChunks chunks. Replication is
// clamped to the usable provider count; replicas within one set are
// distinct. Providers named in exclude are skipped — unless that would
// leave nothing, in which case the exclusion is ignored: a retry against
// a just-failed provider (which may have merely timed out) still beats
// refusing the write outright.
func (m *Manager) Allocate(numChunks, replication int, exclude []string) ([][]string, error) {
	if numChunks <= 0 {
		return nil, nil
	}
	if replication < 1 {
		replication = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	live := m.live()
	if len(exclude) > 0 {
		skip := make(map[string]bool, len(exclude))
		for _, a := range exclude {
			skip[a] = true
		}
		kept := make([]*provInfo, 0, len(live))
		for _, p := range live {
			if !skip[p.addr] {
				kept = append(kept, p)
			}
		}
		if len(kept) > 0 {
			live = kept
		}
	}
	if len(live) == 0 {
		return nil, ErrNoProviders
	}
	// Capacity watermark: providers that declared a capacity and are
	// nearly full stop receiving placements, unless that would leave
	// nothing (a full cluster must still accept writes; the rebalancer
	// and GC are what make room).
	var underWater []*provInfo
	for _, p := range live {
		if p.fullness() <= allocWatermark {
			underWater = append(underWater, p)
		}
	}
	if len(underWater) > 0 {
		live = underWater
	}
	if replication > len(live) {
		replication = len(live)
	}
	sets := make([][]string, numChunks)
	switch m.strategy {
	case StrategyRoundRobin:
		for i := range sets {
			set := make([]string, replication)
			for r := 0; r < replication; r++ {
				set[r] = live[(m.rrCounter+uint64(r))%uint64(len(live))].addr
			}
			m.rrCounter++
			sets[i] = set
		}
	case StrategyRandom:
		for i := range sets {
			perm := m.rng.Perm(len(live))
			set := make([]string, replication)
			for r := 0; r < replication; r++ {
				set[r] = live[perm[r]].addr
			}
			sets[i] = set
		}
	case StrategyLeastLoaded:
		// Greedy: always pick the least-loaded providers, tracking load we
		// are about to add so one Allocate spreads. When every live
		// provider declared a capacity the score is FULLNESS (bytes/cap),
		// so a heterogeneous pool fills proportionally — the small disk is
		// not crushed by byte-count parity with the big one; otherwise the
		// score falls back to raw bytes.
		byFullness := true
		for _, p := range live {
			if p.capBytes == 0 {
				byFullness = false
				break
			}
		}
		load := make(map[string]float64, len(live))
		for _, p := range live {
			if byFullness {
				load[p.addr] = p.fullness() * float64(len(live)*numChunks+1)
			} else {
				load[p.addr] = float64(p.bytes)
			}
		}
		for i := range sets {
			sort.Slice(live, func(a, b int) bool {
				if load[live[a].addr] != load[live[b].addr] {
					return load[live[a].addr] < load[live[b].addr]
				}
				return live[a].addr < live[b].addr
			})
			set := make([]string, replication)
			for r := 0; r < replication; r++ {
				set[r] = live[r].addr
				load[live[r].addr]++ // unit cost per chunk replica
			}
			sets[i] = set
		}
	}
	return sets, nil
}

// Server exposes a Manager over RPC.
type Server struct {
	m   *Manager
	srv *rpc.Server
}

// NewServer wires a Manager to an RPC server at addr.
func NewServer(network rpc.Network, addr, strategy string, hbTimeout time.Duration) (*Server, error) {
	m, err := NewManager(strategy, hbTimeout)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, srv: rpc.NewServer(network, addr)}
	rpc.HandleMsg(s.srv, MethodRegister, func() *RegisterReq { return &RegisterReq{} },
		func(req *RegisterReq) (*Ack, error) {
			s.m.Register(req.Addr)
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, provider.MethodHeartbeat, func() *provider.HeartbeatReq { return &provider.HeartbeatReq{} },
		func(req *provider.HeartbeatReq) (*Ack, error) {
			s.m.Heartbeat(req)
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodReport, func() *Ack { return &Ack{} },
		func(*Ack) (*ReportResp, error) {
			return &ReportResp{Providers: s.m.Report()}, nil
		})
	rpc.HandleMsg(s.srv, MethodAllocate, func() *AllocateReq { return &AllocateReq{} },
		func(req *AllocateReq) (*AllocateResp, error) {
			sets, err := s.m.Allocate(int(req.NumChunks), int(req.Replication), req.Exclude)
			if err != nil {
				return nil, err
			}
			return &AllocateResp{Sets: sets}, nil
		})
	rpc.HandleMsg(s.srv, MethodProviders, func() *Ack { return &Ack{} },
		func(*Ack) (*ProvidersResp, error) {
			return &ProvidersResp{Addrs: s.m.Providers()}, nil
		})
	return s, nil
}

// Start begins serving.
func (s *Server) Start() error { return s.srv.Start() }

// Close stops serving.
func (s *Server) Close() { s.srv.Close() }

// Addr returns the service address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Manager exposes the underlying state.
func (s *Server) Manager() *Manager { return s.m }

// SetRPCObserver attaches an observer to the provider manager's RPC
// server (per-method latency/bytes/error metrics).
func (s *Server) SetRPCObserver(o rpc.ServerObserver) { s.srv.SetObserver(o) }

// SetRPCTracer attaches a tracer to the RPC server: every inbound
// sampled request records a server span under the caller's trace.
func (s *Server) SetRPCTracer(t *trace.Tracer) { s.srv.SetTracer(t) }
