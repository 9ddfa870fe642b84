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
// Journal records are written while the mutated blob's lock is held, so
// WAL order is a linearization of the per-blob state transitions; replay
// re-runs the same transition functions and therefore reconstructs publish
// frontiers, retention floors and floor caps exactly.
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
		if err := m.applyRecord(r); err != nil {
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

// logRecord appends one record to the journal (no-op when volatile).
// Callers follow write-ahead discipline: they hold the lock guarding the
// state the record describes and append BEFORE mutating, so WAL order
// matches mutation order and a failed append leaves RAM untouched — the
// journal can never fall behind the state it must reproduce. (A crash
// between append and mutation replays the record, which is the safe
// direction: the client saw no acknowledgment and retries.)
func (m *Manager) logRecord(rec []byte) error {
	if m.j == nil {
		return nil
	}
	return m.j.Append(rec)
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
	m.mu.Lock()
	blobs := make([]*blobState, 0, len(m.blobs))
	for _, b := range m.blobs {
		blobs = append(blobs, b)
	}
	m.mu.Unlock()
	for _, b := range blobs {
		b.mu.Lock()
		// Versions at or below base were compacted away, which requires
		// they finished: skip them. (A deleted-and-swept blob has base ==
		// lastAssigned with published frozen lower, so starting at
		// published+1 alone would ask for compacted descriptors.)
		start := b.published + 1
		if s := b.base + 1; s > start {
			start = s
		}
		for v := start; v <= b.lastAssigned(); v++ {
			vi, err := b.version(v)
			if err != nil {
				b.mu.Unlock()
				return err
			}
			if vi.committed {
				continue
			}
			if vi.leaseUntil > 0 && m.nowMs() <= vi.leaseUntil {
				continue
			}
			if err := m.logRecord(encAbort(b.id, v, false)); err != nil {
				b.mu.Unlock()
				return err
			}
			b.finishLocked(vi, true)
		}
		b.mu.Unlock()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Record encoding.

func encCreate(id, chunkSize uint64, replication uint32) []byte {
	e := wire.NewEncoder(32)
	e.PutU8(recCreate)
	e.PutU64(id)
	e.PutU64(chunkSize)
	e.PutU32(replication)
	return e.Bytes()
}

func encAssign(id, version uint64, vi *verInfo, newAssignedSize uint64) []byte {
	e := wire.NewEncoder(96)
	e.PutU8(recAssign)
	e.PutU64(id)
	e.PutU64(version)
	e.PutU64(vi.startChunk)
	e.PutU64(vi.endChunk)
	e.PutU64(vi.sizeBytes)
	e.PutU64(vi.sizeChunks)
	e.PutU64(vi.assignPub)
	e.PutU64(newAssignedSize)
	e.PutU64(vi.leaseUntil)
	e.PutU64(vi.leaseTTLMs)
	return e.Bytes()
}

// encEpoch records a leadership-epoch transition.
func encEpoch(epoch uint64, leader string) []byte {
	e := wire.NewEncoder(32)
	e.PutU8(recEpoch)
	e.PutU64(epoch)
	e.PutString(leader)
	return e.Bytes()
}

// encVersionRec covers recCommit.
func encVersionRec(kind uint8, id, version uint64) []byte {
	e := wire.NewEncoder(24)
	e.PutU8(kind)
	e.PutU64(id)
	e.PutU64(version)
	return e.Bytes()
}

// encAbort records an abort and whether the version's identity tree was
// woven at abort time (false leaves the weave as GC debt).
func encAbort(id, version uint64, woven bool) []byte {
	e := wire.NewEncoder(24)
	e.PutU8(recAbort)
	e.PutU64(id)
	e.PutU64(version)
	e.PutBool(woven)
	return e.Bytes()
}

// encLease records a lease grant or renewal: version's lease now runs
// until the given unix-millisecond deadline.
func encLease(id, version, until uint64) []byte {
	e := wire.NewEncoder(32)
	e.PutU8(recLease)
	e.PutU64(id)
	e.PutU64(version)
	e.PutU64(until)
	return e.Bytes()
}

// encWoven records that an aborted version's identity tree reached the
// metadata plane after the abort (the GC sweep's repair).
func encWoven(id, version uint64) []byte {
	e := wire.NewEncoder(24)
	e.PutU8(recWoven)
	e.PutU64(id)
	e.PutU64(version)
	return e.Bytes()
}

// encU64Rec covers recRetention (keepLast), recPrune (wantFloor) and
// recDelete (no argument).
func encRetention(id, keepLast uint64) []byte {
	e := wire.NewEncoder(24)
	e.PutU8(recRetention)
	e.PutU64(id)
	e.PutU64(keepLast)
	return e.Bytes()
}

func encPrune(id, wantFloor uint64) []byte {
	e := wire.NewEncoder(24)
	e.PutU8(recPrune)
	e.PutU64(id)
	e.PutU64(wantFloor)
	return e.Bytes()
}

func encDelete(id uint64) []byte {
	e := wire.NewEncoder(16)
	e.PutU8(recDelete)
	e.PutU64(id)
	return e.Bytes()
}

// encGCReport records the APPLIED outcome of a GCReport — the resolved
// frontier, latch decision and stat deltas — so replay does not depend on
// re-running the latch logic against lost runtime context.
func encGCReport(id, reclaimedTo uint64, deletedSwept bool, pruned uint64, req *GCReportReq) []byte {
	e := wire.NewEncoder(80)
	e.PutU8(recGCReport)
	e.PutU64(id)
	e.PutU64(reclaimedTo)
	e.PutBool(deletedSwept)
	e.PutU64(pruned)
	e.PutU64(req.Chunks)
	e.PutU64(req.Bytes)
	e.PutU64(req.Nodes)
	e.PutU64(req.Orphans)
	return e.Bytes()
}

// ---------------------------------------------------------------------------
// Replay.

// applyRecord applies one journal record to the (volatile, mid-recovery)
// manager. It re-runs the same locked transition helpers the live paths
// use, so replayed state — publish frontiers, floors, floor caps — matches
// what the live mutations produced.
func (m *Manager) applyRecord(rec []byte) error {
	d := wire.NewDecoder(rec)
	kind := d.U8()
	if d.Err() != nil {
		return errJournalCorrupt
	}
	if kind == recEpoch {
		epoch := d.U64()
		leader := d.String()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		m.adoptEpochInfo(epoch, leader)
		return nil
	}
	id := d.U64()
	if d.Err() != nil {
		return errJournalCorrupt
	}
	if kind == recCreate {
		chunkSize := d.U64()
		replication := d.U32()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		m.mu.Lock()
		if _, dup := m.blobs[id]; dup {
			m.mu.Unlock()
			return fmt.Errorf("%w: duplicate create of blob %d", errJournalCorrupt, id)
		}
		m.blobs[id] = newBlobState(id, chunkSize, replication)
		if id >= m.nextID {
			m.nextID = id + 1
		}
		m.mu.Unlock()
		return nil
	}

	m.mu.Lock()
	b, ok := m.blobs[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: record for unknown blob %d", errJournalCorrupt, id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	switch kind {
	case recAssign:
		version := d.U64()
		vi := verInfo{
			startChunk: d.U64(),
			endChunk:   d.U64(),
			sizeBytes:  d.U64(),
			sizeChunks: d.U64(),
			assignPub:  d.U64(),
		}
		newSize := d.U64()
		vi.leaseUntil = d.U64()
		if d.Remaining() > 0 {
			vi.leaseTTLMs = d.U64() // absent in pre-HA journals
		}
		if d.Err() != nil {
			return errJournalCorrupt
		}
		if version != b.lastAssigned()+1 {
			return fmt.Errorf("%w: blob %d assign of version %d after %d", errJournalCorrupt, id, version, b.lastAssigned())
		}
		b.versions = append(b.versions, vi)
		b.assignedSizeBytes = newSize
	case recCommit, recAbort:
		version := d.U64()
		var woven bool
		if kind == recAbort {
			woven = d.Bool()
		}
		if d.Err() != nil {
			return errJournalCorrupt
		}
		vi, err := b.version(version)
		if err != nil {
			return fmt.Errorf("%w: %v", errJournalCorrupt, err)
		}
		if vi.committed {
			return fmt.Errorf("%w: blob %d version %d finished twice", errJournalCorrupt, id, version)
		}
		vi.woven = kind == recAbort && woven
		b.finishLocked(vi, kind == recAbort)
	case recLease:
		version := d.U64()
		until := d.U64()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		vi, err := b.version(version)
		if err != nil {
			return fmt.Errorf("%w: %v", errJournalCorrupt, err)
		}
		vi.leaseUntil = until
	case recWoven:
		version := d.U64()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		vi, err := b.version(version)
		if err != nil {
			return fmt.Errorf("%w: %v", errJournalCorrupt, err)
		}
		if !vi.committed || !vi.failed {
			return fmt.Errorf("%w: blob %d version %d woven while not aborted", errJournalCorrupt, id, version)
		}
		vi.woven = true
	case recRetention:
		b.keepLast = d.U64()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		b.applyPolicyLocked()
	case recPrune:
		want := d.U64()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		if want > b.wantFloor {
			b.wantFloor = want
		}
		b.applyPolicyLocked()
	case recDelete:
		b.deleted = true
	case recGCReport:
		reclaimedTo := d.U64()
		deletedSwept := d.Bool()
		pruned := d.U64()
		chunks, bytes, nodes, orphans := d.U64(), d.U64(), d.U64(), d.U64()
		if d.Err() != nil {
			return errJournalCorrupt
		}
		if reclaimedTo > b.reclaimedTo {
			b.reclaimedTo = reclaimedTo
		}
		if deletedSwept {
			b.deletedSwept = true
		}
		m.addGCTotals(chunks, bytes, nodes, orphans, pruned)
	default:
		return fmt.Errorf("%w: unknown record type %d", errJournalCorrupt, kind)
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
