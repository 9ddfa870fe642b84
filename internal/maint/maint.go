// Package maint implements BlobSeer's maintenance plane: the one
// background engine that keeps lock-free versioning cheap. Every write
// stores only a diff and replicates it once, at upload time; without
// something reclaiming pruned diffs, restoring lost replicas and
// re-verifying cold chunks, a long-running deployment grows without bound,
// decays toward data loss and rots silently. The version manager owns the
// *policy* (retention floors, blob tombstones, replication degrees); this
// package owns the *mechanism*, as three actions over one shared view of
// the deployment:
//
//   - reclaim (reclaim.go), the garbage collector: pruned versions,
//     deleted blobs, unwoven aborts, aborted-write orphans, stray replicas;
//   - replicate (replicate.go), the self-healing loop: re-replicate, patch
//     the leaves, rebalance overfull providers;
//   - verify (verify.go), the rate-bounded bit-rot scrubber.
//
// One pass (Engine.Run) fetches the provider view — pm.report, and the
// quarantine lists when replicate is due — once, and then, per blob,
// vm.gcstatus once and the liveness walk once (pass.liveSet). Liveness is
// structural. Trees are persistent, so a pruned version's nodes and chunks
// may still be referenced by retained snapshots; a node or chunk is dead
// iff it is not reachable from ANY retained version's tree, so the live
// set is a union walk over every retained snapshot. With leaf tracking on,
// the same walk yields the chunk → replica-set placement map and the
// exact leaf descriptors a replica patch must rewrite, so reclaim and
// replicate share it instead of walking twice.
//
// The engine keeps no progress between passes — reclamation bookkeeping
// lives at the version manager and anything half-done is simply
// re-detected — so any node may run one and crashed passes simply rerun:
// the cluster harness, a `blobseerd -role maint` daemon, a
// vmanager-attached loop, or `blobseer-cli maint`. Pass counters
// aggregate at the version manager (vm.maintreport; the journaled GC
// frontier moves through vm.gcreport).
package maint

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// Action is a set of maintenance actions to run in one pass.
type Action uint8

// The maintenance actions.
const (
	Reclaim Action = 1 << iota
	Replicate
	Verify
	All = Reclaim | Replicate | Verify
)

// actionNames and actionPlanes (each action's group in the counter table)
// are indexed by bit position.
var (
	actionNames  = [...]string{"reclaim", "replicate", "verify"}
	actionPlanes = [...]string{"gc", "repair", "scrub"}
)

// String names the set ("reclaim+replicate").
func (a Action) String() string {
	var parts []string
	for i, name := range actionNames {
		if a&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "+")
}

// Summary renders the counters the set's actions own, one
// "plane: name=value ..." group per action, joined by sep.
func (a Action) Summary(st *vmanager.Counters, sep string) string {
	var parts []string
	for i, plane := range actionPlanes {
		if a&(1<<i) == 0 {
			continue
		}
		text := plane + ":"
		for id, def := range vmanager.CounterTable {
			if def.Plane == plane {
				text += fmt.Sprintf(" %s=%d", def.Name, st[id])
			}
		}
		parts = append(parts, text)
	}
	return strings.Join(parts, sep)
}

// ParseAction resolves one action name, or "all".
func ParseAction(s string) (Action, error) {
	if s == "all" {
		return All, nil
	}
	for i, name := range actionNames {
		if s == name {
			return 1 << i, nil
		}
	}
	return 0, fmt.Errorf("maint: unknown action %q (reclaim|replicate|verify|all)", s)
}

// Deployment locates the services an engine maintains.
type Deployment struct {
	// RPC is the connection cache all calls run over.
	RPC *rpc.Client
	// Meta is the metadata DHT view (same ring as the clients').
	Meta *meta.Client
	// VM routes version-manager calls to the current group leader,
	// following leadership redirects across failovers, so maintenance
	// keeps running while the control plane moves.
	VM *vmanager.Caller
	// PM locates the provider manager.
	PM string
}

// Config wires an Engine to a deployment and tunes its actions.
type Config struct {
	Deployment
	// OrphanGrace is the minimum age before an unreferenced chunk is
	// considered an aborted-write orphan (default 5m). Must comfortably
	// exceed the longest plausible write: phase-1 uploads happen before
	// the version manager knows the write exists.
	OrphanGrace time.Duration
	// HighWater is the fullness (bytes/capacity) above which a live
	// provider is drained by the rebalancer (default 0.85). Only providers
	// that declare a capacity in their heartbeats participate.
	HighWater float64
	// LowWater is the fullness a drain aims for (default 0.8 × HighWater).
	LowWater float64
	// MaxMoveBytes bounds the payload the rebalancer migrates per pass
	// (default 1 GiB), so one pass cannot saturate the fabric; the rest
	// moves on later passes.
	MaxMoveBytes uint64
	// ScrubBytesPerSec bounds the aggregate verification rate (default
	// 32 MiB/s): after each scrub slice the engine sleeps long enough that
	// verified bytes per wall-clock second stay under this. 0 applies the
	// default; use NoRateLimit for tests that want full speed.
	ScrubBytesPerSec uint64

	// sleep is swappable by tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// Engine runs maintenance passes against one deployment. It is safe for
// concurrent use: the background loop and on-demand passes may overlap
// (sweeps are idempotent, duplicate copies are tolerated).
type Engine struct {
	cfg Config

	// confirmed memoizes, per chunk key the orphan sweep has proven
	// referenced by a metadata tree, the REPLICA SET that reference named
	// at confirmation time. Chunk references are immutable in identity but
	// repair-mutable in placement, so the memo must remember where the
	// copies were supposed to live: a copy on a provider the memo lists is
	// settled (skip the walk — the steady-state sweep costs one ListChunks
	// per provider, no tree walks), while a copy on a provider the memo
	// does NOT list forces a re-walk, which either re-confirms it (the
	// replicate action re-homed the chunk there) or reclaims it as a STRAY
	// replica — a copy a patch dropped from the metadata (a drained
	// rebalance source whose delete failed, or a dead provider that came
	// back still holding re-replicated chunks).
	// The memo can only go stale in one direction: a patch moves a
	// replica OFF an address the memo still lists, and the skip check
	// would then shield that stray copy from the re-walk forever (a
	// long-lived engine that confirmed before the repair never looks
	// again). Patches are globally counted at the version manager
	// (RepairLeavesPatched), so each orphan sweep compares that counter
	// and flushes the whole memo when repair activity happened since the
	// last one — the next sweep re-walks and re-confirms against the
	// patched placement. Repair is rare; the flush costs one extra walk
	// round per repair burst, not per pass.
	confirmedMu sync.Mutex
	confirmed   map[chunk.Key][]string
	lastPatched uint64

	// pending accumulates pass deltas whose vm.maintreport failed, so they ride the next pass's report
	// instead of vanishing. Losing a report would be more than a stats
	// blemish: the memo flush above keys off the version manager's
	// cumulative RepairLeavesPatched, and a dropped patch delta could
	// shield stale memo entries (and the stray copies they hide)
	// indefinitely.
	repMu   sync.Mutex
	pending vmanager.Counters
}

// New validates cfg, applies the defaults and builds an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.RPC == nil || cfg.Meta == nil || cfg.VM == nil || cfg.PM == "" {
		return nil, fmt.Errorf("maint: RPC client, metadata client, version manager caller and provider manager address are required")
	}
	if cfg.OrphanGrace <= 0 {
		cfg.OrphanGrace = 5 * time.Minute
	}
	if cfg.HighWater <= 0 || cfg.HighWater > 1 {
		cfg.HighWater = 0.85
	}
	if cfg.LowWater <= 0 || cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater * 0.8
	}
	if cfg.MaxMoveBytes == 0 {
		cfg.MaxMoveBytes = 1 << 30
	}
	if cfg.ScrubBytesPerSec == 0 {
		cfg.ScrubBytesPerSec = defaultScrubBytesPerSec
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	return &Engine{cfg: cfg, confirmed: make(map[chunk.Key][]string)}, nil
}

// pass carries one pass's deployment view and results.
type pass struct {
	e *Engine
	// ctx carries the pass's root span: every RPC the pass issues is its
	// child, so one pass reconstructs as one trace.
	ctx     context.Context
	actions Action
	// st is this pass's counter delta; the embedded firstError its first
	// failure (later ones are retried next pass like it).
	st vmanager.Counters
	firstError

	// providers is the pm.report membership and fullness view. good marks
	// the live ones: the only addresses reads should probe and placement
	// should target.
	providers []pmanager.ProviderStatus
	good      map[string]bool
	// corrupt maps provider → quarantined chunk keys (from
	// provider.corruptlist): copies that failed digest verification. A
	// corrupt copy counts as lost for degree purposes — never a copy or
	// drain source — and is deleted once the healed descriptor lands.
	corrupt map[string]map[chunk.Key]bool
	// places accumulates every scanned chunk's placement for rebalance.
	places map[chunk.Key]*chunkPlace
	order  []chunk.Key // deterministic iteration for tests and retries
}

// Run executes one pass of the given actions: verify first (so what it
// quarantines is healed by the same pass — a verify that found corruption
// pulls replicate in), then, per blob, reclaim and replicate over one
// shared status + liveness walk, then rebalance. Errors on one blob or
// provider don't stop the pass; the first error is returned at the end,
// and everything skipped is re-detected next pass. The returned Counters
// is this pass's delta.
func (e *Engine) Run(actions Action) (vmanager.Counters, error) {
	ctx, span := e.cfg.RPC.Tracer().StartOp(context.Background(), "maint."+actions.String())
	p := &pass{e: e, ctx: ctx, actions: actions, places: make(map[chunk.Key]*chunkPlace)}
	p.run()

	p.keep(e.report(ctx, &p.st))
	span.Finish(p.err)
	return p.st, p.err
}

// report aggregates one pass's delta at the version manager, folding in
// any deltas earlier failed reports left behind; on failure the merged
// delta is parked for the next pass.
func (e *Engine) report(ctx context.Context, st *vmanager.Counters) error {
	e.repMu.Lock()
	delta := e.pending
	delta.Add(st)
	e.pending = vmanager.Counters{}
	e.repMu.Unlock()
	if err := e.cfg.VM.Call(ctx, vmanager.MethodMaintReport, &delta, &vmanager.Ack{}); err != nil {
		e.repMu.Lock()
		e.pending.Add(&delta)
		e.repMu.Unlock()
		return fmt.Errorf("maint: reporting pass: %w", err)
	}
	return nil
}

func (p *pass) run() {
	cfg := &p.e.cfg
	var report pmanager.ReportResp
	if err := cfg.RPC.CallCtx(p.ctx, cfg.PM, pmanager.MethodReport, &pmanager.Ack{}, &report); err != nil {
		// Without a membership view there is nothing to verify or repair
		// onto; reclaim still prunes (its delete sweeps defer themselves).
		p.keep(fmt.Errorf("maint: provider report: %w", err))
		p.actions &= Reclaim
	}
	p.providers = report.Providers
	p.good = make(map[string]bool, len(p.providers))
	for _, pr := range p.providers {
		if pr.Live {
			p.good[pr.Addr] = true
		}
	}

	if p.actions&Verify != 0 {
		p.verify()
		if p.st[vmanager.ScrubCorruptFound] > 0 {
			p.actions |= Replicate
		}
	}
	if p.actions&Replicate != 0 {
		if len(p.good) == 0 {
			p.keep(fmt.Errorf("maint: no live providers; nothing to repair onto"))
			p.actions &^= Replicate
		} else {
			p.loadQuarantine()
		}
	}
	if p.actions&(Reclaim|Replicate) == 0 {
		return
	}

	// aged[blob][provider] = orphan candidates found there. Listed BEFORE
	// any blob's status is fetched: a version assigned after the listing
	// then shows up as in flight and parks that blob's orphan sweep.
	var aged map[uint64]map[string][]chunk.Key
	work := make(map[uint64]bool)
	if p.actions&Reclaim != 0 {
		p.sweepUnwoven()
		aged = p.listAged()
		for _, id := range p.blobIDs(vmanager.MethodGCWork) {
			work[id] = true
		}
	}
	for _, id := range p.blobIDs(vmanager.MethodList) {
		// Reclaim alone touches only blobs with pending work or aged
		// candidates, so an idle pass costs no per-blob RPCs.
		if p.actions&Replicate != 0 || len(aged[id]) > 0 {
			work[id] = true
		}
	}
	for id := range work {
		p.maintainBlob(id, aged[id])
	}
	if p.actions&Replicate != 0 {
		if err := p.rebalance(); err != nil {
			p.failRepair(err)
		}
		p.st[vmanager.RepairPasses]++
	}
}

// blobIDs fetches one of the version manager's blob listings.
func (p *pass) blobIDs(method string) []uint64 {
	var resp vmanager.ListResp
	if err := p.e.cfg.VM.Call(p.ctx, method, &vmanager.Ack{}, &resp); err != nil {
		p.keep(fmt.Errorf("maint: %s: %w", method, err))
	}
	return resp.IDs
}

// blobView is one blob's reclamation status plus, once walked, the union
// live set of its retained versions — each fetched once per pass and
// shared by every action.
type blobView struct {
	id     uint64
	status vmanager.GCStatusResp
	sizes  map[uint64]uint64 // version → tree shape (SizeChunks)
	live   *meta.LiveSet
}

// maintainBlob runs the due per-blob actions over one status fetch and (at
// most) one liveness walk.
func (p *pass) maintainBlob(id uint64, aged map[string][]chunk.Key) {
	v := &blobView{id: id}
	if err := p.e.cfg.VM.Call(p.ctx, vmanager.MethodGCStatus, &vmanager.BlobRef{BlobID: id}, &v.status); err != nil {
		p.keep(fmt.Errorf("maint: status of blob %d: %w", id, err))
		return
	}
	v.sizes = make(map[uint64]uint64, len(v.status.Versions))
	for _, d := range v.status.Versions {
		v.sizes[d.Version] = d.SizeChunks
	}
	if p.actions&Reclaim != 0 {
		if v.status.Deleted {
			p.keep(p.sweepDeleted(v))
		} else {
			p.keep(p.sweepPruned(v))
			p.keep(p.reclaimOrphans(v, aged))
		}
	}
	if p.actions&Replicate != 0 && !v.status.Deleted && v.status.Published > 0 {
		if err := p.repairBlob(v); err != nil {
			p.failRepair(fmt.Errorf("maint: repairing blob %d: %w", id, err))
		}
	}
}

// liveSet walks EVERY retained version's full tree [RetainFrom, Published]
// into one live set, once per blob per pass. Shared subtrees make the
// union walk cost proportional to distinct live nodes, and anchoring on
// all retained versions (not just the floor) keeps a sweep correct even
// when the floor is an aborted version with a missing or partial tree.
// When replicate is due the walk also tracks leaves, yielding chunk →
// (replica set, referencing leaves) in O(providers × depth) RPC rounds.
func (p *pass) liveSet(v *blobView) (*meta.LiveSet, error) {
	if v.live != nil {
		return v.live, nil
	}
	live := meta.NewLiveSet()
	if p.actions&Replicate != 0 {
		live.TrackLeaves()
	}
	for ver := v.status.RetainFrom; ver <= v.status.Published; ver++ {
		size, ok := v.sizes[ver]
		if !ok {
			// Walking it as empty would under-count liveness and let a
			// sweep delete referenced data.
			return nil, fmt.Errorf("maint: status of blob %d does not describe retained version %d", v.id, ver)
		}
		if err := meta.CollectLiveInto(p.ctx, live, p.e.cfg.Meta, v.id, ver, size); err != nil {
			return nil, fmt.Errorf("maint: live walk of blob %d v%d: %w", v.id, ver, err)
		}
	}
	v.live = live
	return live, nil
}

// loadQuarantine collects each good provider's quarantine list so corrupt
// copies are classified as lost replicas. A failed list is treated as
// empty: verify re-detects, and the provider's own read-path checks still
// refuse to serve the copy either way.
func (p *pass) loadQuarantine() {
	p.corrupt = make(map[string]map[chunk.Key]bool)
	for addr := range p.good {
		keys, err := provider.CorruptList(p.ctx, p.e.cfg.RPC, addr)
		if err != nil || len(keys) == 0 {
			continue
		}
		set := make(map[chunk.Key]bool, len(keys))
		for _, k := range keys {
			set[k] = true
		}
		p.corrupt[addr] = set
	}
}
