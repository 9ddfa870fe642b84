package vmanager

import (
	"context"
	"fmt"
	"time"

	"repro/internal/meta"
)

// Write leases. The lock-free write protocol assumes every writer that
// calls Assign eventually calls Commit or Abort; a client that crashes
// between the two would otherwise wedge the blob's publish frontier until
// a version manager restart. With leases, Assign grants a TTL the client
// heartbeats during long uploads, and an expiry loop aborts versions whose
// lease lapses — weaving the identity tree server-side so the dead version
// leaves no treeless hole for later merges. Grant and renew records ride
// the ordinary journal group-commit path, so kill -9 recovery knows which
// in-flight writers were still alive and preserves their leases.

// AbortWeaver repairs an aborted version's metadata tree (an identity over
// its predecessor — see meta.WeaveIdentity) under the expiry pass's
// context. The expiry loop calls it with no manager locks held; errors are
// tolerated (the version is aborted unwoven and the GC sweep repairs it
// via UnwovenAborts).
type AbortWeaver func(ctx context.Context, in meta.IdentityInput) error

// SetLeaseTTL sets the lease TTL granted by Assign (0 disables leases;
// versions assigned without a lease never expire). Not journaled: the TTL
// is deployment configuration, reapplied on boot.
func (m *Manager) SetLeaseTTL(ttl time.Duration) {
	if ttl < 0 {
		ttl = 0
	}
	m.leaseTTLMs.Store(uint64(ttl / time.Millisecond))
}

// LeaseTTL reports the configured lease TTL.
func (m *Manager) LeaseTTL() time.Duration {
	return time.Duration(m.leaseTTLMs.Load()) * time.Millisecond
}

func (m *Manager) nowMs() uint64 {
	if m.now == nil {
		return uint64(time.Now().UnixMilli())
	}
	return uint64(m.now().UnixMilli())
}

// RenewLease extends a version's lease by the configured TTL. A renewal
// arriving after the lease lapsed but before the expiry loop picked the
// version up still succeeds — the abort decision is only made when expiry
// begins, so a slow-but-alive writer gets every possible grace. Once the
// version is aborted (or mid-expiry) the renewal fails typed, telling the
// writer its version is gone and the write must be retried.
func (m *Manager) RenewLease(blobID, version uint64) error {
	b, err := m.liveBlob(blobID)
	if err != nil {
		return err
	}
	m.journalBegin()
	defer m.journalEnd()
	b.mu.Lock()
	defer b.mu.Unlock()
	vi, err := b.version(version)
	if err != nil {
		return err
	}
	if vi.expiring || (vi.committed && vi.failed) {
		return fmt.Errorf("%w: version %d of blob %d", ErrLeaseExpired, version, blobID)
	}
	if vi.committed {
		return nil // heartbeat raced the writer's own commit; nothing to hold
	}
	// Renew by the TTL negotiated at assign time, not the global default:
	// a bulk writer that negotiated a long lease must not have a renewal
	// shorten its runway.
	ttl := vi.leaseTTLMs
	if ttl == 0 {
		ttl = m.leaseTTLMs.Load()
	}
	if ttl == 0 {
		return nil
	}
	if err := m.commit(b, &record{kind: recLease, blob: blobID, version: version, n: m.nowMs() + ttl}); err != nil {
		return err
	}
	m.leasesRenewed.Add(1)
	return nil
}

// ExpireLeases aborts every version whose lease has lapsed, weaving each
// one's identity tree through weaver first (nil weaver, or a weave error,
// aborts unwoven and leaves the repair to the GC sweep). For a live blob
// only the publish frontier can expire — later in-flight versions wait
// behind it anyway, and draining front-to-back keeps the identity weave's
// precondition (all predecessors finished) trivially true. Returns the
// number of versions expired; an error means the journal rejected an
// abort and the pass should be retried next tick.
func (m *Manager) ExpireLeases(ctx context.Context, weaver AbortWeaver) (int, error) {
	// Only a live leader expires: a standby aborting versions on its own
	// would diverge from the leader's journal (it hears about expiries
	// through the replication stream like any other transition).
	if !m.expiryAllowed() {
		return 0, nil
	}
	expired := 0
	for _, b := range m.blobList() {
		n, err := m.expireBlob(ctx, b, weaver)
		expired += n
		if err != nil {
			return expired, err
		}
	}
	if expired > 0 {
		m.maybeCompact()
	}
	return expired, nil
}

func (m *Manager) expireBlob(ctx context.Context, b *blobState, weaver AbortWeaver) (int, error) {
	expired := 0
	for {
		b.mu.Lock()
		if b.deleted {
			b.mu.Unlock()
			n, err := m.expireDeleted(b)
			return expired + n, err
		}
		v := b.published + 1
		if v > b.lastAssigned() {
			b.mu.Unlock()
			return expired, nil
		}
		vi := b.vi(v)
		if vi.committed || vi.expiring || vi.leaseUntil == 0 || m.nowMs() <= vi.leaseUntil {
			b.mu.Unlock()
			return expired, nil
		}
		// Claim the version: from here Commit, Abort and RenewLease for it
		// fail with ErrLeaseExpired, so the abort below cannot race a late
		// writer into publishing a version the weave is repairing.
		vi.expiring = true
		in := b.identityInput(v)
		b.mu.Unlock()

		// Weave with no locks held: this talks to the metadata plane.
		woven := false
		if weaver != nil {
			woven = weaver(ctx, in) == nil
		}

		m.journalBegin()
		b.mu.Lock()
		// Re-fetch: Assign may have grown (reallocated) the version slice
		// while we were weaving. The expiring fence guarantees the version
		// is still unfinished.
		b.vi(v).expiring = false
		err := m.commit(b, &record{kind: recAbort, blob: b.id, version: v, flag: woven})
		b.mu.Unlock()
		m.journalEnd()
		if err != nil {
			return expired, err
		}
		m.leasesExpired.Add(1)
		expired++
		// Loop: the next frontier version may have expired too (a storm of
		// crashed writers drains in one pass).
	}
}

// expireDeleted aborts lapsed-lease versions of a deleted blob. No weave —
// the blob has no readers — but finishing the versions lets the delete
// sweep's all-finished latch close instead of waiting on writers that will
// never return. Candidates are collected first so every journaled abort
// takes the locks in the canonical journalBegin → b.mu order.
func (m *Manager) expireDeleted(b *blobState) (int, error) {
	b.mu.Lock()
	var cand []uint64
	for v := max(b.published, b.base) + 1; v <= b.lastAssigned(); v++ {
		vi := b.vi(v)
		if !vi.committed && !vi.expiring && vi.leaseUntil > 0 && m.nowMs() > vi.leaseUntil {
			cand = append(cand, v)
		}
	}
	b.mu.Unlock()
	expired := 0
	for _, v := range cand {
		m.journalBegin()
		b.mu.Lock()
		vi := b.vi(v)
		if vi.committed || vi.expiring {
			b.mu.Unlock()
			m.journalEnd()
			continue
		}
		err := m.commit(b, &record{kind: recAbort, blob: b.id, version: v})
		b.mu.Unlock()
		m.journalEnd()
		if err != nil {
			return expired, err
		}
		m.leasesExpired.Add(1)
		expired++
	}
	return expired, nil
}

// UnwovenAborts lists every aborted version still addressable by readers
// or the GC sweep whose identity tree has not been woven — recovery
// aborts (the crash took the control plane down with the writers), expiry
// aborts whose weave failed, and client aborts that died mid-repair. The
// GC sweeper weaves each (meta.WeaveIdentity is idempotent) and calls
// MarkWoven, so an in-flight descriptor referencing a version that
// aborted treeless is repairable by GC, not only by the writer that
// noticed. Failed versions above the publish frontier are excluded: their
// predecessors have not all finished, so the identity weave's precondition
// does not hold yet — they appear once the frontier passes them.
func (m *Manager) UnwovenAborts() []meta.IdentityInput {
	var out []meta.IdentityInput
	for _, b := range m.blobList() {
		b.mu.Lock()
		if b.deleted {
			b.mu.Unlock()
			continue
		}
		for v := max(b.reclaimedTo, b.base+1); v <= b.published; v++ {
			if vi := b.vi(v); vi.failed && !vi.woven {
				out = append(out, b.identityInput(v))
			}
		}
		b.mu.Unlock()
	}
	return out
}

// MarkWoven records that an aborted version's identity tree is now in the
// metadata plane (journaled; idempotent). Only aborted versions qualify.
func (m *Manager) MarkWoven(blobID, version uint64) error {
	b, err := m.blob(blobID)
	if err != nil {
		return err
	}
	m.journalBegin()
	defer m.journalEnd()
	b.mu.Lock()
	defer b.mu.Unlock()
	vi, err := b.version(version)
	if err != nil {
		return err
	}
	if !vi.committed || !vi.failed {
		return fmt.Errorf("vmanager: version %d of blob %d is not aborted", version, blobID)
	}
	if vi.woven {
		return nil
	}
	return m.commit(b, &record{kind: recWoven, blob: blobID, version: version})
}

// identityInput describes the identity weave that repairs aborted version
// v. The identity source is the newest non-failed predecessor — the same
// snapshot Assign would hand out here (failed versions carry no content).
// If every retained predecessor failed there is no tree to reference and
// zeros are the resolvable truth. Caller holds b.mu.
func (b *blobState) identityInput(v uint64) meta.IdentityInput {
	vi := b.vi(v)
	in := meta.IdentityInput{
		Blob:       b.id,
		Version:    v,
		StartChunk: vi.startChunk,
		EndChunk:   vi.endChunk,
		SizeChunks: vi.sizeChunks,
	}
	if p := b.liveAtOrBelow(v - 1); p > b.base {
		in.SrcVersion = p
		in.SrcSizeChunks = b.vi(p).sizeChunks
	}
	return in
}

// LeaseStats reports the lease configuration and cumulative counters.
func (m *Manager) LeaseStats() *LeaseStatsResp {
	resp := &LeaseStatsResp{
		TTLMs:   m.leaseTTLMs.Load(),
		Granted: m.leasesGranted.Load(),
		Renewed: m.leasesRenewed.Load(),
		Expired: m.leasesExpired.Load(),
	}
	for _, b := range m.blobList() {
		b.mu.Lock()
		for i := range b.versions {
			if !b.versions[i].committed && b.versions[i].leaseUntil > 0 {
				resp.Active++
			}
		}
		b.mu.Unlock()
	}
	return resp
}
