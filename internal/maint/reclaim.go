package maint

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// The reclaim action: the reclamation flip side of lock-free versioning.
// The prune sweep (sweepPruned) frees what a retention-floor advance
// killed, the delete sweep (sweepDeleted) what a blob deletion did.
//
// The orphan sweep handles the other leak: chunks uploaded ahead of
// version assignment (phase 1 of the write protocol) whose writer aborted
// cleanly or crashed before its write was assigned. Providers report
// per-chunk ages; a chunk older than the grace period referenced by no
// retained snapshot is an orphan. The grace protects phase-1 uploads of
// writes still in flight, which the version manager cannot know about
// yet. A writer that crashes BETWEEN Assign and Commit/Abort holds its
// version in flight only until its write lease lapses; the version
// manager's expiry loop then aborts the version, so the parked orphan
// sweep resumes within a lease TTL instead of waiting for an operator.
//
// The unwoven sweep closes the remaining repair gap: an aborted version
// whose identity tree never reached the metadata plane (the crash took
// the aborting client or the control plane down mid-repair) is listed by
// the version manager, re-woven here via meta.WeaveIdentity, and
// acknowledged — so dangling in-flight descriptors are repairable by any
// engine, not only by the writer that noticed the failure.

// sweepUnwoven repairs aborted versions still owed an identity tree —
// recovery aborts, expiry aborts whose weave failed, and client aborts
// that died mid-repair. meta.WeaveIdentity is idempotent (same input,
// byte-identical nodes), so racing another engine or the expiry loop is
// harmless; the MarkWoven ack simply stops the version from being listed
// again. Running BEFORE any liveness walk matters: the weave turns an
// aborted version's dangling tree range into references the walk can
// actually follow.
func (p *pass) sweepUnwoven() {
	cfg := &p.e.cfg
	var resp vmanager.UnwovenResp
	if err := cfg.VM.Call(p.ctx, vmanager.MethodUnwoven, &vmanager.Ack{}, &resp); err != nil {
		p.keep(fmt.Errorf("maint: listing unwoven aborts: %w", err))
		return
	}
	for _, in := range resp.Items {
		if err := meta.WeaveIdentity(p.ctx, cfg.Meta, in); err != nil {
			p.keep(fmt.Errorf("maint: weaving identity for blob %d v%d: %w", in.Blob, in.Version, err))
			continue
		}
		if err := cfg.VM.Call(p.ctx, vmanager.MethodMarkWoven,
			&vmanager.VersionRef{BlobID: in.Blob, Version: in.Version}, &vmanager.Ack{}); err != nil {
			p.keep(fmt.Errorf("maint: acking woven blob %d v%d: %w", in.Blob, in.Version, err))
			continue
		}
		p.st[vmanager.GCWoven]++
	}
}

// sweepPruned reclaims a floor advance F1 -> F2 by diffing the adjacent
// floor trees: dead = (reachable(F1) ∪ owned(v) for v in (F1, F2)) \
// reachable(F2). reachable(F1) carries everything below the old floor that
// earlier sweeps deliberately kept alive (shared subtrees); the owned
// subgraphs carry the versions pruned by this advance.
func (p *pass) sweepPruned(v *blobView) error {
	cfg := &p.e.cfg
	oldFloor, newFloor := v.status.ReclaimedTo, v.status.RetainFrom
	if oldFloor >= newFloor {
		return nil // nothing pending
	}
	live, err := p.liveSet(v)
	if err != nil {
		return err
	}
	candidates, err := meta.CollectLive(p.ctx, cfg.Meta, v.id, oldFloor, v.sizes[oldFloor])
	if err != nil {
		return fmt.Errorf("maint: candidate walk of blob %d v%d: %w", v.id, oldFloor, err)
	}
	for ver := oldFloor + 1; ver < newFloor; ver++ {
		if err := candidates.AddOwned(p.ctx, cfg.Meta, v.id, ver, v.sizes[ver]); err != nil {
			return fmt.Errorf("maint: owned walk of blob %d v%d: %w", v.id, ver, err)
		}
	}
	deadNodes, deadChunks := meta.DiffDead(candidates, live)
	st := p.deleteChunks(deadChunks)
	// Delete bottom-up (leaves first, root last): a retry after a partial
	// failure re-walks the old floor tree, and that walk can only reach a
	// surviving node through its ancestors. Deleting ancestors before
	// descendants would turn a transient replica outage into permanently
	// undiscoverable (leaked) subtrees.
	sort.Slice(deadNodes, func(i, j int) bool { return deadNodes[i].Size < deadNodes[j].Size })
	for lo := 0; lo < len(deadNodes); {
		hi := lo
		for hi < len(deadNodes) && deadNodes[hi].Size == deadNodes[lo].Size {
			hi++
		}
		dropped, err := cfg.Meta.DeleteNodes(p.ctx, deadNodes[lo:hi])
		st.Nodes += dropped
		if err != nil {
			return p.gcReport(v.id, st, err) // frontier stays at oldFloor
		}
		lo = hi
	}
	st.ReclaimedTo = newFloor
	return p.gcReport(v.id, st, nil)
}

// sweepDeleted drops every trace of a deleted blob: all metadata nodes on
// every DHT member, and all chunks on every data provider. The tombstone
// is only marked swept when every registered provider was actually
// visited — live or not: an empty or failing membership view must leave
// the blob pending so a later pass retries (chunks on an unvisited
// provider would otherwise leak forever).
func (p *pass) sweepDeleted(v *blobView) error {
	cfg := &p.e.cfg
	var st vmanager.GCReportReq
	dropped, err := cfg.Meta.DeleteBlob(p.ctx, v.id)
	st.Nodes += dropped
	if err != nil {
		return p.gcReport(v.id, st, err)
	}
	if len(p.providers) == 0 {
		return p.gcReport(v.id, st,
			fmt.Errorf("maint: blob %d: no provider membership view; deletion sweep deferred", v.id))
	}
	// Full blob deletion kills every memoized confirmation of its chunks.
	p.e.confirmedMu.Lock()
	maps.DeleteFunc(p.e.confirmed, func(k chunk.Key, _ []string) bool { return k.Blob == v.id })
	p.e.confirmedMu.Unlock()
	for _, pr := range p.providers {
		// Tombstone BEFORE listing: any phase-1 upload racing this sweep
		// either lands before the listing (and is deleted below) or is
		// rejected by the tombstone — it can no longer slip in after the
		// listing and leak until the next sweep.
		if err := provider.Tombstone(p.ctx, cfg.RPC, pr.Addr, []uint64{v.id}); err != nil {
			return p.gcReport(v.id, st, err)
		}
		inv, err := provider.ListChunks(p.ctx, cfg.RPC, pr.Addr, v.id)
		if err != nil {
			return p.gcReport(v.id, st, err)
		}
		if len(inv.Keys) == 0 {
			continue
		}
		resp, err := provider.DeleteChunks(p.ctx, cfg.RPC, pr.Addr, inv.Keys)
		if err != nil {
			return p.gcReport(v.id, st, err)
		}
		st.Chunks += resp.Deleted
		st.Bytes += resp.Bytes
	}
	// Echo the pre-sweep finish generation: if any write finished while
	// this sweep ran, its uploads may postdate our listings and the
	// version manager will refuse the latch, queueing one more sweep.
	st.DeletedSwept, st.FinishGen = true, v.status.FinishGen
	return p.gcReport(v.id, st, nil)
}

// flushConfirmedIfRepaired drops the confirmation memo when the version
// manager's cumulative leaves-patched counter moved since the last
// orphan sweep: some replica set changed, and a memoized pre-patch
// placement could otherwise shield a stray copy from the re-walk forever
// (see Engine.confirmed). Errors leave the memo alone — better one stale
// pass than flushing on every transient RPC failure.
func (e *Engine) flushConfirmedIfRepaired(ctx context.Context) {
	var totals vmanager.Counters
	if err := e.cfg.VM.Call(ctx, vmanager.MethodMaintStats, &vmanager.Ack{}, &totals); err != nil {
		return
	}
	e.confirmedMu.Lock()
	if patched := totals[vmanager.RepairLeavesPatched]; patched != e.lastPatched {
		e.lastPatched = patched
		e.confirmed = make(map[chunk.Key][]string)
	}
	e.confirmedMu.Unlock()
}

// listAged gathers the orphan sweep's candidates with ONE full inventory
// listing per live provider (not one per blob): chunks past the grace
// period and not already proven referenced, as aged[blob][provider]. In
// steady state every settled chunk is memoized as confirmed, so an idle
// pass costs one ListChunks per provider — no tree walks, regardless of
// blob count.
func (p *pass) listAged() map[uint64]map[string][]chunk.Key {
	e := p.e
	e.flushConfirmedIfRepaired(p.ctx)
	graceMs := uint64(e.cfg.OrphanGrace / time.Millisecond)
	aged := make(map[uint64]map[string][]chunk.Key)
	for _, pr := range p.providers {
		if !pr.Live {
			continue
		}
		inv, err := provider.ListChunks(p.ctx, e.cfg.RPC, pr.Addr, 0)
		if err != nil {
			continue // provider down; next pass retries
		}
		e.confirmedMu.Lock()
		for i, k := range inv.Keys {
			if inv.AgeMs[i] < graceMs {
				continue
			}
			if addrs, ok := e.confirmed[k]; ok && slices.Contains(addrs, pr.Addr) {
				continue // settled copy where the memoized reference put it
			}
			byAddr := aged[k.Blob]
			if byAddr == nil {
				byAddr = make(map[string][]chunk.Key)
				aged[k.Blob] = byAddr
			}
			byAddr[pr.Addr] = append(byAddr[pr.Addr], k)
		}
		e.confirmedMu.Unlock()
	}
	return aged
}

// reclaimOrphans resolves one blob's orphan candidates against its
// retained snapshots and deletes the unreferenced ones — aborted-write
// leftovers, plus stray replicas: copies of live chunks on providers no
// retained leaf names anymore. It refuses to run while the blob has writes
// in flight: an assigned-but-unpublished version may legitimately
// reference chunks that no readable tree mentions yet. (A writer that
// crashes between Assign and Commit parks this sweep only until its lease
// lapses and the version manager's expiry loop aborts the version; with
// leases disabled, until a manager restart.) A never-written blob
// (assigned == 0) is sweepable: nothing can be referenced, so every aged
// candidate is a crashed pre-assign upload.
func (p *pass) reclaimOrphans(v *blobView, byAddr map[string][]chunk.Key) error {
	if len(byAddr) == 0 || v.status.Assigned != v.status.Published {
		return nil
	}
	live, err := p.liveSet(v)
	if err != nil {
		return err
	}
	var st vmanager.GCReportReq
	for addr, keys := range byAddr {
		var dead []chunk.Key
		for _, k := range keys {
			if ref, ok := live.Chunks[k]; ok {
				if slices.Contains(ref.Providers, addr) {
					p.e.confirmedMu.Lock()
					p.e.confirmed[k] = ref.Providers
					p.e.confirmedMu.Unlock()
					continue
				}
				// Live chunk, but no retained leaf places a replica HERE:
				// a stray copy a patch dropped (failed drain delete, or a
				// dead provider returned after its chunks were re-homed).
				// The referenced replicas elsewhere keep the data safe;
				// this copy is reclaimable.
			}
			dead = append(dead, k)
		}
		if len(dead) == 0 {
			continue
		}
		resp, err := provider.DeleteChunks(p.ctx, p.e.cfg.RPC, addr, dead)
		if err != nil {
			continue
		}
		st.Chunks += resp.Deleted
		st.Bytes += resp.Bytes
		st.Orphans += resp.Deleted
	}
	if st.Orphans > 0 {
		return p.gcReport(v.id, st, nil)
	}
	return nil
}

// deleteChunks removes dead chunks from every replica that holds them,
// grouping keys per provider address.
func (p *pass) deleteChunks(dead []meta.ChunkRef) vmanager.GCReportReq {
	var st vmanager.GCReportReq
	batches := make(map[string][]chunk.Key)
	p.e.confirmedMu.Lock()
	for _, c := range dead {
		// The chunk is being reclaimed; keeping its memo entry would leak
		// a map entry per chunk ever written.
		delete(p.e.confirmed, c.Key)
		for _, addr := range c.Providers {
			batches[addr] = append(batches[addr], c.Key)
		}
	}
	p.e.confirmedMu.Unlock()
	for addr, keys := range batches {
		resp, err := provider.DeleteChunks(p.ctx, p.e.cfg.RPC, addr, keys)
		if err != nil {
			// A down provider keeps its (unreachable-anyway) copies; the
			// prune frontier still advances — the replicate action and the
			// stray sweep, not the prune sweep, own post-failure inventory
			// repair.
			continue
		}
		st.Chunks += resp.Deleted
		st.Bytes += resp.Bytes
	}
	return st
}

// gcReport posts one blob's sweep results to the version manager — the
// journaled frontier transition: the sweep frontier (ReclaimedTo), the
// deleted-blob latch and the reclaimed amounts — and folds them into the
// pass counters. When called with a sweep error the request carries only
// what the caller's bookkeeping actually completed, the latch is
// withheld, and the error wins.
func (p *pass) gcReport(id uint64, req vmanager.GCReportReq, sweepErr error) error {
	p.st[vmanager.GCChunks] += req.Chunks
	p.st[vmanager.GCBytes] += req.Bytes
	p.st[vmanager.GCNodes] += req.Nodes
	p.st[vmanager.GCOrphans] += req.Orphans
	req.BlobID = id
	req.DeletedSwept = req.DeletedSwept && sweepErr == nil
	if err := p.e.cfg.VM.Call(p.ctx, vmanager.MethodGCReport, &req, &vmanager.Ack{}); err != nil && sweepErr == nil {
		sweepErr = fmt.Errorf("maint: reporting sweep of blob %d: %w", id, err)
	}
	return sweepErr
}
