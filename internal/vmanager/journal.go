package vmanager

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/durable"
	"repro/internal/wire"
)

// The version manager is "the key component of the system" (§III), yet its
// state — every blob's version history, publish frontier, retention floor,
// and GC frontier — would die with the process without durability. This
// file journals every state transition through a durable.Log and rebuilds
// the full Manager on boot: snapshot first, then WAL replay, then a
// conservative abort of writes that were in flight at crash time.
//
// Every journaled state change is a record performed by one function,
// apply. A live mutator validates its request, builds the record and
// commits it (journal, then apply) while holding the mutated blob's lock,
// so WAL order is a linearization of the per-blob transitions; recovery
// and standbys decode the same records and call the same apply. Publish
// frontiers, retention floors and floor caps therefore come out identical
// live, on replay and on standbys — the manager is a fold of its records.
//
// Snapshotting doubles as version-history compaction: verInfo entries
// below the GC sweep frontier (fully reclaimed, no longer addressable) are
// folded into a per-blob base offset and dropped from both the snapshot
// and RAM, bounding the version manager's memory by the retained history
// rather than the total history.

// Journal record types.
const (
	recCreate    = uint8(1)
	recAssign    = uint8(2)
	recCommit    = uint8(3)
	recAbort     = uint8(4)
	recRetention = uint8(5)
	recPrune     = uint8(6)
	recDelete    = uint8(7)
	recGCReport  = uint8(8)
	recLease     = uint8(9)
	recWoven     = uint8(10)
	// recEpoch journals a leadership-epoch transition: this node observed
	// (or assumed) leadership epoch E held by the named address. Epochs
	// are the HA fencing tokens; journaling them is what makes fencing
	// survive restarts — a deposed leader that crashes and recovers still
	// knows it was deposed.
	recEpoch = uint8(11)
)

// snapFormat versions the snapshot encoding. Format 2 added the per-version
// lease deadline and woven flag; format 3 added the leadership epoch and
// the per-version granted lease TTL. Older formats still decode (their
// versions simply carry no lease / no epoch).
const snapFormat = uint8(3)

// defaultCompactEvery bounds WAL growth: after this many records the next
// mutation triggers a snapshot + log compaction.
const defaultCompactEvery = 1 << 14

// errJournalCorrupt reports a WAL whose records are internally
// inconsistent (CRC-valid frames that do not decode or do not apply).
var errJournalCorrupt = errors.New("vmanager: corrupt journal record")

// Options tune a persistent Manager.
type Options struct {
	// Fsync forces an fsync on every journal append. Off, appends still
	// reach the OS immediately (they survive process crashes, not machine
	// crashes); snapshots are always fsynced.
	Fsync bool
	// CompactEvery is the WAL record count that triggers automatic
	// snapshot + compaction (0 = a sensible default).
	CompactEvery uint64
}

// OpenManager opens (creating if needed) a durable version manager rooted
// at dir: the journal is replayed into a fresh Manager and every write
// that was assigned but unfinished at crash time is aborted, so the
// publish frontier is immediately unwedged. Writers of those versions are
// either dead (their work is reclaimed by the orphan sweep) or will
// observe a commit failure and retry the write.
func OpenManager(dir string, opts Options) (*Manager, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	log, rec, err := durable.Open(dir, durable.Options{Fsync: opts.Fsync})
	if err != nil {
		return nil, err
	}
	m := NewManager()
	m.compactEvery = opts.CompactEvery
	if rec.Snapshot != nil {
		if err := m.decodeSnapshot(rec.Snapshot); err != nil {
			log.Close()
			return nil, err
		}
	}
	for i, r := range rec.Records {
		if err := m.replay(r); err != nil {
			log.Close()
			return nil, fmt.Errorf("vmanager: replaying journal record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	// Journal from here on; the recovery aborts below are themselves
	// journaled so a second crash replays to the same state.
	m.j = log
	if err := m.abortInFlight(); err != nil {
		log.Close()
		return nil, err
	}
	return m, nil
}

// Close flushes and closes the journal (a volatile Manager is a no-op).
func (m *Manager) Close() error {
	if m.j == nil {
		return nil
	}
	return m.j.Close()
}

// Persistent reports whether the manager journals to disk.
func (m *Manager) Persistent() bool { return m.j != nil }

// JournalStats reports the journal's cumulative append/write/fsync counts
// (zeros for a volatile manager). The fsync-per-append ratio is how the
// group-commit amortization shows up at the version manager: N concurrent
// Assign/Commit transitions coalesce into far fewer than N fsyncs.
func (m *Manager) JournalStats() durable.LogStats {
	if m.j == nil {
		return durable.LogStats{}
	}
	return m.j.Stats()
}

// journalBegin/journalEnd bracket every mutation: they hold the journal's
// reader lock so Compact (the writer) observes either none or all of a
// mutation — state change and WAL record move together.
func (m *Manager) journalBegin() {
	if m.j != nil {
		m.jmu.RLock()
	}
}

func (m *Manager) journalEnd() {
	if m.j != nil {
		m.jmu.RUnlock()
	}
}

// maybeCompact runs a snapshot + log compaction once the WAL has grown
// past the configured threshold. Called outside all locks after a
// mutation; safe under concurrency (the worst case is two back-to-back
// compactions).
func (m *Manager) maybeCompact() {
	if m.j == nil || m.j.Records() < m.compactEvery {
		return
	}
	_, _ = m.Compact() // best effort; the WAL keeps working uncompacted
}

// Compact snapshots the full manager state, truncates the journal to that
// snapshot, and drops reclaimed version history from RAM. It returns the
// number of verInfo entries compacted away. Safe to call on a volatile
// manager (no-op).
func (m *Manager) Compact() (uint64, error) {
	if m.j == nil {
		return 0, nil
	}
	// Exclude every mutator, so the snapshot is a consistent cut that
	// includes exactly the records appended so far.
	m.jmu.Lock()
	defer m.jmu.Unlock()
	snapshot, dropped := m.encodeSnapshot()
	if err := m.j.Compact(snapshot); err != nil {
		return dropped, fmt.Errorf("vmanager: compacting journal: %w", err)
	}
	return dropped, nil
}

// abortInFlight finishes (as failed) every version that was assigned but
// not finished when the journal was written, journaling the aborts.
// Versions holding an unexpired lease are spared: their writer may still
// be alive (the manager crashed, not the client) and entitled to commit;
// if the writer is gone too, the lease lapses and the expiry loop aborts
// the version with a proper server-side identity weave. Recovery aborts
// are recorded unwoven — the crash likely took the control plane down
// with the writers, so the GC sweep owes each one an identity tree.
func (m *Manager) abortInFlight() error {
	for _, b := range m.blobList() {
		b.mu.Lock()
		// Versions at or below base were compacted away, which requires
		// they finished: skip them. (A deleted-and-swept blob has base ==
		// lastAssigned with published frozen lower, so starting at
		// published+1 alone would ask for compacted descriptors.)
		for v := max(b.published, b.base) + 1; v <= b.lastAssigned(); v++ {
			vi := b.vi(v)
			if vi.committed || (vi.leaseUntil > 0 && m.nowMs() <= vi.leaseUntil) {
				continue
			}
			if err := m.commit(b, &record{kind: recAbort, blob: b.id, version: v}); err != nil {
				b.mu.Unlock()
				return err
			}
		}
		b.mu.Unlock()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Records.

// record is one journaled transition. Every kind uses the fields below
// that its layout lists (after the kind byte; u64 unless noted):
//
//	recCreate    blob, n = chunk size, replication (u32)
//	recAssign    blob, version, vi (start/end chunk, size bytes/chunks,
//	             assign-time snapshot), n = assigned size, vi lease
//	             deadline, vi lease TTL (absent in pre-HA journals)
//	recCommit    blob, version
//	recAbort     blob, version, flag = woven (bool)
//	recRetention blob, n = keepLast
//	recPrune     blob, n = wanted floor
//	recDelete    blob
//	recGCReport  blob, n = sweep frontier, flag = swept (bool), then the
//	             gc deltas: pruned, chunks, bytes, nodes, orphans
//	recLease     blob, version, n = lease deadline (unix ms)
//	recWoven     blob, version
//	recEpoch     n = epoch, leader (string)
//
// A GC report records its APPLIED outcome (resolved frontier, latch
// decision, deltas), so replay never re-runs the latch logic against lost
// runtime context.
type record struct {
	kind        uint8
	blob        uint64
	version     uint64
	vi          verInfo
	n           uint64
	replication uint32
	flag        bool
	gc          [journaledCounters]uint64
	leader      string
}

func (r *record) encode() []byte {
	e := wire.NewEncoder(96)
	e.PutU8(r.kind)
	if r.kind == recEpoch {
		e.PutU64(r.n)
		e.PutString(r.leader)
		return e.Bytes()
	}
	e.PutU64(r.blob)
	switch r.kind {
	case recCreate:
		e.PutU64(r.n)
		e.PutU32(r.replication)
	case recAssign:
		e.PutU64(r.version)
		e.PutU64(r.vi.startChunk)
		e.PutU64(r.vi.endChunk)
		e.PutU64(r.vi.sizeBytes)
		e.PutU64(r.vi.sizeChunks)
		e.PutU64(r.vi.assignPub)
		e.PutU64(r.n)
		e.PutU64(r.vi.leaseUntil)
		e.PutU64(r.vi.leaseTTLMs)
	case recCommit, recWoven:
		e.PutU64(r.version)
	case recAbort:
		e.PutU64(r.version)
		e.PutBool(r.flag)
	case recLease:
		e.PutU64(r.version)
		e.PutU64(r.n)
	case recRetention, recPrune:
		e.PutU64(r.n)
	case recGCReport:
		e.PutU64(r.n)
		e.PutBool(r.flag)
		e.PutU64(r.gc[GCPruned])
		for _, d := range r.gc[:GCPruned] { // chunks, bytes, nodes, orphans
			e.PutU64(d)
		}
	}
	return e.Bytes()
}

func decodeRecord(buf []byte) (record, error) {
	d := wire.NewDecoder(buf)
	r := record{kind: d.U8()}
	if r.kind == recEpoch {
		r.n = d.U64()
		r.leader = d.String()
	} else {
		r.blob = d.U64()
	}
	switch r.kind {
	case recCreate:
		r.n = d.U64()
		r.replication = d.U32()
	case recAssign:
		r.version = d.U64()
		r.vi.startChunk = d.U64()
		r.vi.endChunk = d.U64()
		r.vi.sizeBytes = d.U64()
		r.vi.sizeChunks = d.U64()
		r.vi.assignPub = d.U64()
		r.n = d.U64()
		r.vi.leaseUntil = d.U64()
		if d.Remaining() > 0 {
			r.vi.leaseTTLMs = d.U64() // absent in pre-HA journals
		}
	case recCommit, recWoven:
		r.version = d.U64()
	case recAbort:
		r.version = d.U64()
		r.flag = d.Bool()
	case recLease:
		r.version = d.U64()
		r.n = d.U64()
	case recRetention, recPrune:
		r.n = d.U64()
	case recGCReport:
		r.n = d.U64()
		r.flag = d.Bool()
		r.gc[GCPruned] = d.U64()
		for id := range r.gc[:GCPruned] {
			r.gc[id] = d.U64()
		}
	case recDelete, recEpoch: // nothing past the fields read above
	default:
		return r, fmt.Errorf("%w: unknown record type %d", errJournalCorrupt, r.kind)
	}
	if d.Err() != nil {
		return r, errJournalCorrupt
	}
	return r, nil
}

// commit journals r, then applies it: the one way a live mutator changes
// journaled state. Write-ahead: the caller holds the locks apply needs
// (and jmu shared, via journalBegin), so WAL order matches apply order,
// and a failed append leaves RAM untouched — the journal can never fall
// behind the state it must reproduce. (A crash between append and apply
// replays the record, which is the safe direction: the client saw no
// acknowledgment and retries.) The caller has checked everything apply
// checks, so apply cannot fail once the record is in the journal.
func (m *Manager) commit(b *blobState, r *record) error {
	if m.j != nil {
		if err := m.j.Append(r.encode()); err != nil {
			return err
		}
	}
	return m.apply(b, r)
}

// replay decodes one journal record and applies it: how recovery and
// standbys perform a transition that was committed before.
func (m *Manager) replay(buf []byte) error {
	r, err := decodeRecord(buf)
	if err != nil {
		return err
	}
	if r.kind == recCreate || r.kind == recEpoch {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.apply(nil, &r)
	}
	b, err := m.blob(r.blob)
	if err != nil {
		return fmt.Errorf("%w: record for unknown blob %d", errJournalCorrupt, r.blob)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return m.apply(b, &r)
}

// apply performs one transition. It is the only code that changes
// journaled state — snapshot decode/install and history compaction aside —
// so live, replayed and replicated managers agree by construction. b is
// the record's blob, locked by the caller; create and epoch records take
// b == nil, and a create needs m.mu held instead. The errors reject
// journals whose records do not apply; a live mutator never hits one.
func (m *Manager) apply(b *blobState, r *record) error {
	switch r.kind {
	case recEpoch:
		m.adoptEpochInfo(r.n, r.leader)
		return nil
	case recCreate:
		if _, dup := m.blobs[r.blob]; dup {
			return fmt.Errorf("%w: duplicate create of blob %d", errJournalCorrupt, r.blob)
		}
		m.blobs[r.blob] = newBlobState(r.blob, r.n, r.replication)
		m.nextID = max(m.nextID, r.blob+1)
		return nil
	case recAssign:
		if r.version != b.lastAssigned()+1 {
			return fmt.Errorf("%w: blob %d assign of version %d after %d", errJournalCorrupt, b.id, r.version, b.lastAssigned())
		}
		b.versions = append(b.versions, r.vi)
		b.assignedSizeBytes = r.n
		return nil
	case recRetention:
		b.keepLast = r.n
		b.applyPolicyLocked()
		return nil
	case recPrune:
		b.wantFloor = max(b.wantFloor, r.n)
		b.applyPolicyLocked()
		return nil
	case recDelete:
		b.deleted = true
		b.wakeWaitersLocked()
		return nil
	case recGCReport:
		b.reclaimedTo = max(b.reclaimedTo, r.n)
		b.deletedSwept = b.deletedSwept || r.flag
		m.maintMu.Lock()
		for id, d := range r.gc {
			m.maint[id] += d
		}
		m.maintMu.Unlock()
		return nil
	}
	// The remaining kinds act on one assigned version.
	vi, err := b.version(r.version)
	if err != nil {
		return fmt.Errorf("%w: %v", errJournalCorrupt, err)
	}
	switch r.kind {
	case recCommit, recAbort:
		if vi.committed {
			return fmt.Errorf("%w: blob %d version %d finished twice", errJournalCorrupt, b.id, r.version)
		}
		vi.woven = r.kind == recAbort && r.flag
		b.finishLocked(vi, r.kind == recAbort)
	case recLease:
		vi.leaseUntil = r.n
	case recWoven:
		if !vi.committed || !vi.failed {
			return fmt.Errorf("%w: blob %d version %d woven while not aborted", errJournalCorrupt, b.id, r.version)
		}
		vi.woven = true
	}
	return nil
}

// ---------------------------------------------------------------------------
// Snapshot encoding.

// encodeSnapshot captures the full manager state, first folding each
// blob's fully reclaimed version history into its base offset (the
// history-compaction step). Caller holds jmu exclusively, so no mutation
// is concurrent. Returns the snapshot and how many verInfo entries were
// dropped from RAM.
func (m *Manager) encodeSnapshot() ([]byte, uint64) {
	return m.encodeSnapshotOpt(true)
}

// encodeSnapshotOpt is encodeSnapshot with history compaction optional: a
// pure encode (compact=false) leaves RAM untouched, which is what state
// digests want. Blobs are encoded in ascending ID order, so two managers
// holding the same logical state produce byte-identical snapshots — the
// property the replication convergence tests assert.
func (m *Manager) encodeSnapshotOpt(compact bool) ([]byte, uint64) {
	ei := m.epochView()
	m.mu.Lock()
	defer m.mu.Unlock()
	e := wire.NewEncoder(1024)
	e.PutU8(snapFormat)
	e.PutU64(m.nextID)
	m.maintMu.Lock()
	for _, v := range m.maint[:journaledCounters] {
		e.PutU64(v)
	}
	m.maintMu.Unlock()
	e.PutU64(ei.epoch)
	e.PutString(ei.leader)
	ids := make([]uint64, 0, len(m.blobs))
	for id := range m.blobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.PutU32(uint32(len(ids)))
	var dropped uint64
	for _, id := range ids {
		b := m.blobs[id]
		b.mu.Lock()
		if compact {
			dropped += b.compactHistoryLocked()
		}
		e.PutU64(b.id)
		e.PutU64(b.chunkSize)
		e.PutU32(b.replication)
		e.PutU64(b.base)
		e.PutU64(b.published)
		e.PutU64(b.assignedSizeBytes)
		e.PutU64(b.keepLast)
		e.PutU64(b.retainFrom)
		e.PutU64(b.wantFloor)
		e.PutU64(b.reclaimedTo)
		e.PutU64(b.finishGen)
		e.PutBool(b.deleted)
		e.PutBool(b.deletedSwept)
		e.PutU32(uint32(len(b.versions)))
		for i := range b.versions {
			vi := &b.versions[i]
			e.PutU64(vi.startChunk)
			e.PutU64(vi.endChunk)
			e.PutU64(vi.sizeBytes)
			e.PutU64(vi.sizeChunks)
			e.PutU64(vi.assignPub)
			e.PutBool(vi.committed)
			e.PutBool(vi.failed)
			e.PutU64(vi.leaseUntil)
			e.PutBool(vi.woven)
			e.PutU64(vi.leaseTTLMs)
		}
		b.mu.Unlock()
	}
	return e.Bytes(), dropped
}

// decodeSnapshot rebuilds manager state from a snapshot payload.
func (m *Manager) decodeSnapshot(snap []byte) error {
	d := wire.NewDecoder(snap)
	format := d.U8()
	if format < 1 || format > snapFormat {
		return fmt.Errorf("vmanager: unknown snapshot format %d", format)
	}
	m.nextID = d.U64()
	for id := range m.maint[:journaledCounters] {
		m.maint[id] = d.U64()
	}
	if format >= 3 {
		epoch := d.U64()
		leader := d.String()
		if epoch > 0 {
			m.adoptEpochInfo(epoch, leader)
		}
	}
	numBlobs := d.U32()
	if d.Err() != nil {
		return fmt.Errorf("vmanager: corrupt snapshot header: %w", d.Err())
	}
	for i := uint32(0); i < numBlobs; i++ {
		id := d.U64()
		chunkSize := d.U64()
		replication := d.U32()
		b := newBlobState(id, chunkSize, replication)
		b.base = d.U64()
		b.published = d.U64()
		b.assignedSizeBytes = d.U64()
		b.keepLast = d.U64()
		b.retainFrom = d.U64()
		b.wantFloor = d.U64()
		b.reclaimedTo = d.U64()
		b.finishGen = d.U64()
		b.deleted = d.Bool()
		b.deletedSwept = d.Bool()
		numVers := d.U32()
		if d.Err() != nil {
			return fmt.Errorf("vmanager: corrupt snapshot blob %d: %w", i, d.Err())
		}
		b.versions = make([]verInfo, numVers)
		for v := range b.versions {
			vi := &b.versions[v]
			vi.startChunk = d.U64()
			vi.endChunk = d.U64()
			vi.sizeBytes = d.U64()
			vi.sizeChunks = d.U64()
			vi.assignPub = d.U64()
			vi.committed = d.Bool()
			vi.failed = d.Bool()
			if format >= 2 {
				vi.leaseUntil = d.U64()
				vi.woven = d.Bool()
			}
			if format >= 3 {
				vi.leaseTTLMs = d.U64()
			}
		}
		if d.Err() != nil {
			return fmt.Errorf("vmanager: corrupt snapshot blob %d versions: %w", id, d.Err())
		}
		m.blobs[id] = b
	}
	return nil
}

// compactHistoryLocked folds fully reclaimed version history into the
// blob's base offset, releasing the verInfo entries (ROADMAP: "compact
// them into a base offset once reclaimed"). Versions below the GC sweep
// frontier have been erased from every provider and are no longer
// addressable, so nothing can ever ask for their descriptors again; for a
// deleted-and-swept blob the whole history goes. Caller holds b.mu.
// Returns the number of entries dropped.
func (b *blobState) compactHistoryLocked() uint64 {
	target := b.reclaimedTo
	if b.deleted && b.deletedSwept {
		target = b.lastAssigned() + 1
	}
	if target <= b.base+1 {
		return 0
	}
	drop := target - 1 - b.base
	if n := uint64(len(b.versions)); drop >= n {
		b.versions = nil
		drop = n
	} else {
		// Copy so the dropped prefix is actually released.
		b.versions = append([]verInfo(nil), b.versions[drop:]...)
	}
	b.base = target - 1
	return drop
}
