// Package pmanager implements BlobSeer's provider manager: the component
// that "decides which chunks are stored on which data providers when
// writes or appends are issued" (§I-B2). Placement stripes chunks over
// the live providers round-robin (§I-B3 "data striping"), skipping nearly
// full ones.
package pmanager

import (
	"errors"
	"fmt"
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
	MethodAllocate  = "pm.allocate"
	MethodProviders = "pm.providers"
	MethodReport    = "pm.report"
)

// ErrNoProviders is returned when no live provider can host a chunk.
var ErrNoProviders = errors.New("pmanager: no live data providers")

// ErrTooManyChunks rejects an allocation whose reply could not fit in one
// RPC frame.
var ErrTooManyChunks = errors.New("pmanager: allocation reply exceeds one rpc frame")

// MaxAllocateChunks bounds the replica sets of one allocation: each takes
// at least 8 bytes of an AllocateResp (its count and one length-prefixed
// address), so no more than this many fit in one RPC frame.
const MaxAllocateChunks = rpc.MaxFrame / 8

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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *AllocateReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *AllocateReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *AllocateReq) Wire(c *wire.Codec) {
	c.U32(&r.NumChunks)
	c.U32(&r.Replication)
	c.Strings(&r.Exclude, wire.MaxCount)
}

// AllocateResp returns one replica set per chunk.
type AllocateResp struct {
	Sets [][]string
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *AllocateResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *AllocateResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *AllocateResp) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Sets, MaxAllocateChunks, func(set *[]string, c *wire.Codec) { c.Strings(set, wire.MaxCount) })
}

// ProvidersResp lists live provider addresses.
type ProvidersResp struct {
	Addrs []string
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ProvidersResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ProvidersResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ProvidersResp) Wire(c *wire.Codec) {
	c.Strings(&r.Addrs, wire.MaxCount)
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

func (p *ProviderStatus) wire(c *wire.Codec) {
	c.String(&p.Addr)
	c.U64(&p.Chunks)
	c.U64(&p.Bytes)
	c.U64(&p.CapBytes)
	c.U64(&p.FreeBytes)
	c.U64(&p.SinceBeatMs)
	c.Bool(&p.Live)
}

// ReportResp lists every registered provider's status, live or not.
// Fullness scoring belongs to the consumers (the repair engine projects
// load as it plans moves; Allocate's watermark reads provInfo.fullness),
// so the status carries only the raw byte/capacity facts.
type ReportResp struct {
	Providers []ProviderStatus
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ReportResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ReportResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ReportResp) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Providers, wire.MaxCount, (*ProviderStatus).wire)
}

type provInfo struct {
	addr      string
	chunks    uint64
	bytes     uint64
	capBytes  uint64
	freeBytes uint64
	lastSeen  time.Time
}

// fullness is bytes over declared capacity (0 = no capacity declared).
func (p *provInfo) fullness() float64 {
	if p.capBytes == 0 {
		return 0
	}
	return float64(p.bytes) / float64(p.capBytes)
}

// Manager tracks providers and computes placements.
type Manager struct {
	hbTimeout time.Duration

	mu        sync.Mutex
	providers map[string]*provInfo
	rrCounter uint64
	now       func() time.Time
}

// NewManager creates a manager. hbTimeout is how long a provider may stay
// silent before being considered dead (0 = 2s).
func NewManager(hbTimeout time.Duration) *Manager {
	if hbTimeout == 0 {
		hbTimeout = 2 * time.Second
	}
	return &Manager{
		hbTimeout: hbTimeout,
		providers: make(map[string]*provInfo),
		now:       time.Now,
	}
}

// Heartbeat refreshes a provider's liveness, load, and free space. A
// provider joins with its first beat (so a restarted one re-appears
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
	// Size the reply from the shortest address before allocating for it.
	minAddr := len(live[0].addr)
	for _, p := range live {
		minAddr = min(minAddr, len(p.addr))
	}
	if setBytes := 4 + replication*(4+minAddr); numChunks > (rpc.MaxFrame-4)/setBytes {
		return nil, fmt.Errorf("%w: %d chunks x %d replicas", ErrTooManyChunks, numChunks, replication)
	}
	sets := make([][]string, numChunks)
	for i := range sets {
		set := make([]string, replication)
		for r := 0; r < replication; r++ {
			set[r] = live[(m.rrCounter+uint64(r))%uint64(len(live))].addr
		}
		m.rrCounter++
		sets[i] = set
	}
	return sets, nil
}

// Server exposes a Manager over RPC.
type Server struct {
	m   *Manager
	srv *rpc.Server
}

// NewServer wires a Manager to an RPC server at addr.
func NewServer(network rpc.Network, addr string, hbTimeout time.Duration) *Server {
	s := &Server{m: NewManager(hbTimeout), srv: rpc.NewServer(network, addr)}
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
	return s
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
