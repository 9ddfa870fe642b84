// Package vmanager implements BlobSeer's version manager: the component
// that "assigns versions to writes and appends and exposes these versions
// to the reads in such way as to ensure consistency" (§I-B2).
//
// It is the system's only serialization point, and deliberately does very
// little per request — assign a version number, record the write's chunk
// extent, and later publish versions in order once their writers commit.
// All heavy lifting (chunk upload, metadata weaving) happens at the
// clients, fully in parallel; this is the versioning-based concurrency
// control of §I-B3.
//
// Consistency: a version becomes readable ("published") only when it and
// every earlier version have committed. Reads always name a published
// version, so the total order of publishes is a linearization of all
// operations — the linearizability guarantee the paper cites [1].
package vmanager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// ErrNoSuchBlob is returned for operations on unknown blob IDs.
var ErrNoSuchBlob = errors.New("vmanager: no such blob")

// ErrNoSuchVersion is returned for queries beyond the assigned history.
var ErrNoSuchVersion = errors.New("vmanager: no such version")

// ErrBlobDeleted is returned for operations on deleted blobs. The text is
// matched client-side (errors cross the RPC boundary as strings), so it
// must stay in sync with core's detection.
var ErrBlobDeleted = errors.New("vmanager: blob deleted")

// ErrRetainLatest is returned when a prune would reclaim the newest
// published version; at least one snapshot always stays readable.
var ErrRetainLatest = errors.New("vmanager: cannot prune the latest published version")

// ErrLeaseExpired is returned when a slow-but-alive writer's Commit (or
// lease renewal) races an abort the manager already performed — lease
// expiry, or the conservative restart-abort. The version it tried to
// publish has been woven away; silently accepting the commit would
// resurrect content later merges no longer reference. Like ErrBlobDeleted
// the text crosses the RPC boundary as a string and is matched client-side.
var ErrLeaseExpired = errors.New("vmanager: lease expired")

type verInfo struct {
	startChunk uint64
	endChunk   uint64
	sizeBytes  uint64
	sizeChunks uint64
	committed  bool
	failed     bool
	// assignPub is the published version at assign time. While this write
	// is in flight its weave may reference any node reachable from that
	// snapshot, so the retention floor must not pass it (see floorCap).
	assignPub uint64
	// leaseUntil is the writer's lease deadline in unix milliseconds
	// (0 = no lease: assigned while leases were disabled). Journaled, so
	// kill -9 recovery knows which in-flight writers were still alive.
	leaseUntil uint64
	// leaseTTLMs is the TTL granted to THIS version at assign time: bulk
	// writers negotiate a longer lease than the global default (sized to
	// their upload), and renewals must extend by the negotiated amount —
	// renewing a 2-minute upload's lease by the 2-second default would
	// expire it mid-flight. Journaled with the assign record.
	leaseTTLMs uint64
	// woven records, for a FAILED version, that an identity tree exists
	// for it in the metadata plane — later weaves referencing its
	// in-flight descriptor resolve, no treeless hole. Aborts by the lease
	// expiry loop and by clients that completed abort repair set it;
	// recovery aborts leave it false and the GC sweep repairs them.
	woven bool
	// expiring marks a version the expiry loop is mid-abort on (identity
	// weave in progress, b.mu released). It fences late Commit/renew RPCs
	// with ErrLeaseExpired. RAM-only: after a crash the version is
	// uncommitted with a lapsed lease and recovery aborts it anyway.
	expiring bool
}

type blobState struct {
	id          uint64
	chunkSize   uint64
	replication uint32

	mu sync.Mutex
	// base counts leading versions whose verInfo was compacted away after
	// full reclamation (journal snapshotting folds them into this offset);
	// versions[i] describes version base+i+1.
	base      uint64
	versions  []verInfo
	published uint64
	// assignedSizeBytes is the blob size after the newest assigned write;
	// appends are placed at this offset.
	assignedSizeBytes uint64
	waiters           map[uint64][]chan struct{}

	// Retention and garbage-collection state (versioning companion paper:
	// old-snapshot reclamation is the flip side of lock-free versioning).
	//
	// keepLast is the retention policy: keep the newest N published
	// versions (0 = keep all). retainFrom is the retention floor: the
	// smallest version readers may still address; everything below it is
	// reclaimable. wantFloor remembers the highest floor an explicit
	// Prune has requested, so a prune deferred by in-flight writes (see
	// floorCap) completes once they drain. reclaimedTo tracks GC
	// progress: versions below it have been fully swept from the metadata
	// DHT and the data providers.
	// Invariants: 1 <= reclaimedTo <= retainFrom <= max(published, 1).
	keepLast     uint64
	retainFrom   uint64
	wantFloor    uint64
	reclaimedTo  uint64
	deleted      bool
	deletedSwept bool
	// finishGen counts Commit/Abort events. A delete sweep snapshots it
	// via GCStatus and echoes it in GCReport; the tombstone latches only
	// if no write finished in between, so late uploads from a write that
	// completed mid-sweep always get one more sweep.
	finishGen uint64
}

// lastAssigned is the highest assigned version number.
func (b *blobState) lastAssigned() uint64 { return b.base + uint64(len(b.versions)) }

// vi returns the descriptor of version v, which the caller has checked is
// in (base, lastAssigned].
func (b *blobState) vi(v uint64) *verInfo { return &b.versions[v-b.base-1] }

func (b *blobState) version(v uint64) (*verInfo, error) {
	if v == 0 || v > b.lastAssigned() {
		return nil, fmt.Errorf("%w: blob %d version %d", ErrNoSuchVersion, b.id, v)
	}
	if v <= b.base {
		return nil, fmt.Errorf("%w: blob %d version %d (history compacted)", ErrNoSuchVersion, b.id, v)
	}
	return b.vi(v), nil
}

// finishLocked marks one version finished (committed or failed), advances
// the publish frontier over every fully finished prefix, wakes waiters,
// and re-applies the retention policy. Caller holds b.mu; only apply calls
// it. On a deleted blob the finish is recorded but publication does not
// advance (the delete-sweep latch needs the finish count; readers are gone).
func (b *blobState) finishLocked(vi *verInfo, failed bool) {
	vi.committed = true
	vi.failed = failed
	b.finishGen++
	if b.deleted {
		return
	}
	for b.published < b.lastAssigned() && b.vi(b.published+1).committed {
		b.published++
		for _, ch := range b.waiters[b.published] {
			close(ch)
		}
		delete(b.waiters, b.published)
	}
	b.applyPolicyLocked()
}

// wakeWaitersLocked wakes every WaitPublished waiter of the blob; each
// re-checks its condition (deleted, leadership lost, state replaced).
// Caller holds b.mu.
func (b *blobState) wakeWaitersLocked() {
	for v, chans := range b.waiters {
		for _, ch := range chans {
			close(ch)
		}
		delete(b.waiters, v)
	}
}

// liveAtOrBelow returns the newest non-failed version at or below v, or
// b.base when every retained version up to v failed (history below base
// carries no descriptors). Failed versions have no content, so this is
// the snapshot a reader of v sees. Caller holds b.mu.
func (b *blobState) liveAtOrBelow(v uint64) uint64 {
	for v > b.base && b.vi(v).failed {
		v--
	}
	return v
}

// newBlobState builds a freshly created blob's state.
func newBlobState(id, chunkSize uint64, replication uint32) *blobState {
	return &blobState{
		id:          id,
		chunkSize:   chunkSize,
		replication: replication,
		waiters:     make(map[uint64][]chan struct{}),
		retainFrom:  1,
		reclaimedTo: 1,
	}
}

// Manager is the version manager service state.
type Manager struct {
	mu     sync.Mutex
	blobs  map[uint64]*blobState
	nextID uint64

	// j, when set, journals every mutation for crash recovery (see
	// journal.go). jmu excludes mutators during snapshotting; mutators
	// hold it shared around their state change + journal append.
	j            *durable.Log
	jmu          sync.RWMutex
	compactEvery uint64

	// Cumulative counters. The leading journaledCounters (GC reclamation
	// totals) are fed by GCReport and persisted. The lease paths bump the
	// lease rows (count) and the engines' rows arrive through MaintReport;
	// both are observability only — never journaled.
	maintMu sync.Mutex
	maint   Counters

	// Write-lease state. leaseTTLMs is the TTL granted by Assign (0
	// disables leases). now is the clock, swappable by tests.
	leaseTTLMs atomic.Uint64
	now        func() time.Time

	// High-availability state: leadership epoch, role, replication stream
	// (see ha.go / repl.go). Zero value = HA disabled, every gate passes.
	ha haState
}

// NewManager creates an empty, volatile version manager (state dies with
// the process; see OpenManager for the durable variant).
func NewManager() *Manager {
	return &Manager{blobs: make(map[uint64]*blobState), nextID: 1, compactEvery: journalCompactEvery, now: time.Now}
}

// Create registers a new blob with the given chunk size and replication
// degree and returns its ID.
func (m *Manager) Create(chunkSize uint64, replication uint32) (uint64, error) {
	if chunkSize == 0 {
		return 0, errors.New("vmanager: chunk size must be positive")
	}
	if replication == 0 {
		replication = 1
	}
	if replication > meta.MaxReplicas {
		return 0, fmt.Errorf("vmanager: replication degree %d exceeds the cap of %d", replication, meta.MaxReplicas)
	}
	m.journalBegin()
	m.mu.Lock()
	id := m.nextID
	err := m.commit(nil, &record{kind: recCreate, blob: id, n: chunkSize, replication: replication})
	m.mu.Unlock()
	m.journalEnd()
	if err != nil {
		return 0, err
	}
	m.maybeCompact()
	return id, nil
}

// blobList copies the blob set under m.mu, for passes that then lock one
// blob at a time.
func (m *Manager) blobList() []*blobState {
	m.mu.Lock()
	defer m.mu.Unlock()
	blobs := make([]*blobState, 0, len(m.blobs))
	for _, b := range m.blobs {
		blobs = append(blobs, b)
	}
	return blobs
}

func (m *Manager) blob(id uint64) (*blobState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBlob, id)
	}
	return b, nil
}

// liveBlob resolves a blob and rejects deleted ones.
func (m *Manager) liveBlob(id uint64) (*blobState, error) {
	b, err := m.blob(id)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	deleted := b.deleted
	b.mu.Unlock()
	if deleted {
		return nil, fmt.Errorf("%w: %d", ErrBlobDeleted, id)
	}
	return b, nil
}

// Info reports a blob's parameters, its published extent, and its
// retention state.
func (m *Manager) Info(id uint64) (*InfoResp, error) {
	b, err := m.liveBlob(id)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	resp := &InfoResp{
		ChunkSize:   b.chunkSize,
		Replication: b.replication,
		Published:   b.published,
		KeepLast:    b.keepLast,
		RetainFrom:  b.retainFrom,
	}
	if b.published > 0 {
		vi := b.vi(b.published)
		resp.SizeBytes = vi.sizeBytes
		resp.SizeChunks = vi.sizeChunks
	}
	return resp, nil
}

// List returns all non-deleted blob IDs.
func (m *Manager) List() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, 0, len(m.blobs))
	for id, b := range m.blobs {
		b.mu.Lock()
		deleted := b.deleted
		b.mu.Unlock()
		if !deleted {
			ids = append(ids, id)
		}
	}
	return ids
}

// Assign reserves the next version for a write ([Offset, Offset+Size)) or
// append (Size bytes at the current end) and returns the full weave
// context: the write's chunk extent, the published snapshot at this
// instant, and descriptors for every assigned-but-unpublished version.
func (m *Manager) Assign(req *AssignReq) (*AssignResp, error) {
	if req.Size == 0 {
		return nil, errors.New("vmanager: zero-length write")
	}
	b, err := m.liveBlob(req.BlobID)
	if err != nil {
		return nil, err
	}
	m.journalBegin()
	defer m.journalEnd()
	b.mu.Lock()
	defer b.mu.Unlock()

	offset := req.Offset
	if req.Append {
		offset = b.assignedSizeBytes
	}
	end := offset + req.Size
	newSize := b.assignedSizeBytes
	if end > newSize {
		newSize = end
	}
	// The snapshot handed to the writer is the newest NON-FAILED published
	// version: weaves and abort repairs resolve untouched ranges by
	// reading through PubVersion's tree, and a failed version may have no
	// tree at all (its own abort repair can die with the control plane
	// mid-crash), so referencing one would poison every later write of
	// the blob — each retry would abort against the broken snapshot and
	// leave an equally broken version behind. Failed versions contribute
	// no content, so the newest live version IS the published snapshot,
	// content-wise. (History compacted below base has no trees either;
	// if everything above base failed, fall back to the frontier —
	// no better reference exists.)
	pub := b.liveAtOrBelow(b.published)
	if pub == b.base && b.base > 0 {
		pub = b.published
	}
	cs := b.chunkSize
	vi := verInfo{
		startChunk: offset / cs,
		endChunk:   (end + cs - 1) / cs,
		sizeBytes:  newSize,
		sizeChunks: (newSize + cs - 1) / cs,
		assignPub:  pub,
	}
	resp := &AssignResp{
		Version:       b.lastAssigned() + 1,
		Offset:        offset,
		PrevSizeBytes: b.assignedSizeBytes,
		SizeBytes:     newSize,
		SizeChunks:    vi.sizeChunks,
		StartChunk:    vi.startChunk,
		EndChunk:      vi.endChunk,
		PubVersion:    pub,
	}
	if pub > b.base && pub > 0 {
		resp.PubSizeChunks = b.vi(pub).sizeChunks
	}
	for v := b.published + 1; v < resp.Version; v++ {
		w := b.vi(v)
		resp.InFlight = append(resp.InFlight, meta.WriteDesc{
			Version:    v,
			StartChunk: w.startChunk,
			EndChunk:   w.endChunk,
			SizeChunks: w.sizeChunks,
			SizeBytes:  w.sizeBytes,
		})
	}
	if ttl := m.leaseTTLMs.Load(); ttl > 0 {
		// Per-version TTL negotiation: a bulk writer asks for a lease sized
		// to its upload. Grants are clamped to 8x the configured default so
		// a buggy client cannot wedge the abort path for hours, and floored
		// at the default so a lowball request cannot make itself flaky.
		grant := ttl
		if want := req.WantLeaseTTLMs; want > grant {
			if max := ttl * 8; want > max {
				want = max
			}
			grant = want
		}
		vi.leaseUntil = m.nowMs() + grant
		vi.leaseTTLMs = grant
		resp.LeaseTTLMs = grant
	}
	if err := m.commit(b, &record{kind: recAssign, blob: b.id, version: resp.Version, vi: vi, n: newSize}); err != nil {
		return nil, err
	}
	if vi.leaseUntil > 0 {
		m.count(LeaseGranted)
	}
	return resp, nil
}

// Commit marks a version's data and metadata as fully stored, then
// publishes every version whose predecessors have all committed, waking
// any waiters. A Commit that loses the race against a lease-expiry or
// restart abort returns ErrLeaseExpired: the version was already woven
// away as an identity, and publishing it now would expose content that
// later merges no longer reference.
func (m *Manager) Commit(blobID, version uint64) error {
	err := m.finish(blobID, version, false, false)
	m.maybeCompact()
	return err
}

// Abort marks a version as failed. Publication still advances past it —
// otherwise one crashed writer would wedge the blob forever — but reads
// naming the failed version are rejected. woven is the caller vouching
// that the version's identity tree is already in the metadata plane (the
// client abort-repair path), so no server-side weave is owed for it;
// otherwise the lease expiry loop or the GC sweep weaves it later.
func (m *Manager) Abort(blobID, version uint64, woven bool) error {
	err := m.finish(blobID, version, true, woven)
	m.maybeCompact()
	return err
}

func (m *Manager) finish(blobID, version uint64, failed, woven bool) error {
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
	if vi.committed {
		if vi.failed && !failed {
			// The manager aborted this version (lease expiry or the
			// conservative restart-abort) and the writer's Commit arrived
			// late. Typed, so the client can distinguish "my write was
			// undone, retry it" from a protocol bug.
			return fmt.Errorf("%w: version %d of blob %d was aborted before commit", ErrLeaseExpired, version, blobID)
		}
		if vi.failed && failed {
			return nil // duplicate abort (client repair raced expiry); idempotent
		}
		return fmt.Errorf("vmanager: version %d of blob %d committed twice", version, blobID)
	}
	if vi.expiring {
		// The expiry loop is weaving this version's identity tree right
		// now (b.mu released around the metadata RPCs). Its abort is
		// already decided; letting a commit slip in would publish a
		// version whose tree the weave is overwriting.
		return fmt.Errorf("%w: version %d of blob %d is being aborted", ErrLeaseExpired, version, blobID)
	}
	// A deleted blob still RECORDS the finish (then reports the
	// deletion): the delete sweep must not be marked complete while
	// writes are in flight — their late metadata/chunk uploads land
	// after the sweep — so the tombstone latches only once every
	// assigned version has finished and one more sweep has run (the
	// finishGen echo in GCReport enforces the "one more").
	r := record{kind: recCommit, blob: blobID, version: version}
	if failed {
		r.kind, r.flag = recAbort, woven
	}
	if err := m.commit(b, &r); err != nil {
		return err
	}
	if b.deleted {
		return fmt.Errorf("%w: %d", ErrBlobDeleted, blobID)
	}
	return nil
}

// floorCapLocked bounds how far the retention floor may advance right
// now. Two limits apply (caller holds b.mu):
//
//  1. the newest NON-FAILED published version is never pruned: failed
//     versions have no content (and possibly no tree — an abort repair
//     can die with the control plane), so the newest live snapshot is
//     what "latest" means content-wise, and it is also what Assign hands
//     to writers as PubVersion — pruning it would delete the very tree
//     every subsequent weave and merge resolves through;
//  2. an in-flight (assigned, unpublished) write wove its metadata
//     against the snapshot published at its assign time and may reference
//     anything reachable from it, so the floor must not pass that
//     snapshot — otherwise a sweep could delete nodes the write's tree
//     references the moment it commits.
func (b *blobState) floorCapLocked() uint64 {
	limit := b.liveAtOrBelow(b.published)
	for v := b.published + 1; v <= b.lastAssigned(); v++ {
		ap := b.vi(v).assignPub // v > published: unpublished
		if ap == 0 {
			return 1 // writer assigned against an empty blob; no pruning yet
		}
		if ap < limit {
			limit = ap
		}
	}
	return limit
}

// applyPolicyLocked advances the retention floor toward the keep-last-N
// policy target and any deferred explicit prune, within floorCapLocked.
// Caller holds b.mu. Re-run after every publish, so a floor deferred by
// in-flight writes catches up as they drain.
func (b *blobState) applyPolicyLocked() {
	want := b.wantFloor
	if b.keepLast > 0 && b.published > b.keepLast {
		if f := b.published - b.keepLast + 1; f > want {
			want = f
		}
	}
	if cap := b.floorCapLocked(); want > cap {
		want = cap
	}
	if want > b.retainFrom {
		b.retainFrom = want
	}
}

// SetRetention installs a keep-last-N policy (0 = keep every version) and
// applies it immediately to the published history.
func (m *Manager) SetRetention(blobID, keepLast uint64) error {
	b, err := m.liveBlob(blobID)
	if err != nil {
		return err
	}
	m.journalBegin()
	defer m.journalEnd()
	b.mu.Lock()
	defer b.mu.Unlock()
	return m.commit(b, &record{kind: recRetention, blob: blobID, n: keepLast})
}

// Prune raises the retention floor so that versions 1..upTo become
// reclaimable, and returns the new floor. The newest published version
// can never be pruned, and the floor is monotone: pruning less than an
// earlier prune is a no-op, not an error. The returned floor may lag the
// request while writes are in flight (their woven trees may reference
// older snapshots); the remainder applies automatically as they publish.
func (m *Manager) Prune(blobID, upTo uint64) (uint64, error) {
	b, err := m.liveBlob(blobID)
	if err != nil {
		return 0, err
	}
	m.journalBegin()
	defer m.journalEnd()
	b.mu.Lock()
	defer b.mu.Unlock()
	if upTo >= b.published {
		return 0, fmt.Errorf("%w: blob %d has published %d, prune up to %d",
			ErrRetainLatest, blobID, b.published, upTo)
	}
	want := max(b.wantFloor, upTo+1)
	if err := m.commit(b, &record{kind: recPrune, blob: blobID, n: want}); err != nil {
		return 0, err
	}
	return b.retainFrom, nil
}

// Delete marks a blob deleted. Every subsequent operation on it fails;
// the GC sweep reclaims all its metadata and chunks. Waiters blocked in
// WaitPublished are woken and observe the deletion.
func (m *Manager) Delete(blobID uint64) error {
	b, err := m.blob(blobID)
	if err != nil {
		return err
	}
	m.journalBegin()
	defer m.journalEnd()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.deleted {
		return nil // idempotent
	}
	return m.commit(b, &record{kind: recDelete, blob: blobID})
}

// Latest reports the newest published version (version 0 with zero sizes
// for a blob that has never been written).
func (m *Manager) Latest(blobID uint64) (*LatestResp, error) {
	b, err := m.liveBlob(blobID)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	resp := &LatestResp{Version: b.published}
	if b.published > 0 {
		vi := b.vi(b.published)
		resp.SizeBytes = vi.sizeBytes
		resp.SizeChunks = vi.sizeChunks
	}
	return resp, nil
}

// VersionInfo describes one assigned version. Versions below the
// retention floor come back with Reclaimed set (not an error): the client
// library maps the flag onto its typed ErrVersionReclaimed.
func (m *Manager) VersionInfo(blobID, version uint64) (*VersionInfoResp, error) {
	b, err := m.liveBlob(blobID)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if version > 0 && version <= b.base {
		// History below the sweep frontier was compacted away; the version
		// existed, was published, and is long reclaimed. Its sizes are
		// gone, but Reclaimed is the only field a client may act on.
		return &VersionInfoResp{Published: true, Reclaimed: true}, nil
	}
	vi, err := b.version(version)
	if err != nil {
		return nil, err
	}
	return &VersionInfoResp{
		SizeBytes:  vi.sizeBytes,
		SizeChunks: vi.sizeChunks,
		Published:  version <= b.published,
		Failed:     vi.failed,
		Reclaimed:  version < b.retainFrom,
	}, nil
}

// WaitPublished blocks until the given version is published (or returns
// immediately if it already is). Versions are dense and monotone, so
// waiting on a version that has not even been assigned yet is meaningful:
// the call returns once enough writes have been published. The caller's
// RPC timeout bounds the wait.
func (m *Manager) WaitPublished(blobID, version uint64) error {
	b, err := m.blob(blobID)
	if err != nil {
		return err
	}
	for {
		b.mu.Lock()
		// The deleted check must share the critical section with waiter
		// registration: Delete drains the waiter map exactly once, so a
		// waiter registered after that drain would block forever.
		if b.deleted {
			b.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrBlobDeleted, blobID)
		}
		if version == 0 || version <= b.published {
			b.mu.Unlock()
			return nil
		}
		ch := make(chan struct{})
		b.waiters[version] = append(b.waiters[version], ch)
		b.mu.Unlock()
		// The leader gate ran at RPC dispatch, but a step-down between
		// dispatch and the registration above would have drained the
		// waiter map before we joined it — nothing local would ever wake
		// ch. stepDownLocked stores the role before draining, so if the
		// gate still passes here, any step-down that could miss us has
		// not drained yet and will close ch; if it fails, deregister and
		// redirect instead of parking forever.
		if err := m.leaderGate(); err != nil {
			b.mu.Lock()
			chans := b.waiters[version]
			for i, c := range chans {
				if c == ch {
					b.waiters[version] = append(chans[:i], chans[i+1:]...)
					break
				}
			}
			if len(b.waiters[version]) == 0 {
				delete(b.waiters, version)
			}
			b.mu.Unlock()
			return err
		}
		<-ch
		// Woken by a publish, a delete, or a leadership step-down (the
		// deposed leader drains every waiter: the publish this caller is
		// waiting for will happen on the NEW leader). Loop and re-check;
		// the gate turns a step-down wake into a redirect.
		if err := m.leaderGate(); err != nil {
			return err
		}
	}
}

// GCWork lists every blob with outstanding reclamation work: a retention
// floor ahead of the sweep frontier, or a deletion not yet swept.
func (m *Manager) GCWork() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []uint64
	for id, b := range m.blobs {
		b.mu.Lock()
		pending := (b.deleted && !b.deletedSwept) || b.reclaimedTo < b.retainFrom
		b.mu.Unlock()
		if pending {
			ids = append(ids, id)
		}
	}
	return ids
}

// GCStatus describes one blob's reclamation state for a sweeper. Versions
// carries a descriptor (version number and tree shape) for every version
// in [ReclaimedTo, RetainFrom]: the pruned range plus the floor version,
// whose tree anchors the liveness walk. For deleted blobs the sweep drops
// everything wholesale and Versions is empty.
func (m *Manager) GCStatus(blobID uint64) (*GCStatusResp, error) {
	b, err := m.blob(blobID)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	resp := &GCStatusResp{
		Deleted:     b.deleted,
		RetainFrom:  b.retainFrom,
		ReclaimedTo: b.reclaimedTo,
		Published:   b.published,
		Assigned:    b.lastAssigned(),
		ChunkSize:   b.chunkSize,
		Replication: b.replication,
		FinishGen:   b.finishGen,
	}
	if !b.deleted {
		for v := b.reclaimedTo; v <= b.published; v++ {
			vi := b.vi(v)
			resp.Versions = append(resp.Versions, meta.WriteDesc{
				Version:    v,
				StartChunk: vi.startChunk,
				EndChunk:   vi.endChunk,
				SizeChunks: vi.sizeChunks,
				SizeBytes:  vi.sizeBytes,
			})
		}
	}
	return resp, nil
}

// GCReport records a completed sweep: the new sweep frontier, whether a
// deleted blob was fully dropped, and the amount reclaimed (accumulated
// into the manager's cumulative GC statistics).
func (m *Manager) GCReport(req *GCReportReq) error {
	b, err := m.blob(req.BlobID)
	if err != nil {
		return err
	}
	m.journalBegin()
	b.mu.Lock()
	// Resolve the applied outcome, then commit it: the record carries the
	// frontier and latch decision RAM will hold, not the request.
	r := record{kind: recGCReport, blob: req.BlobID, n: b.reclaimedTo, flag: b.deletedSwept,
		gc: [journaledCounters]uint64{GCChunks: req.Chunks, GCBytes: req.Bytes, GCNodes: req.Nodes, GCOrphans: req.Orphans}}
	if target := min(req.ReclaimedTo, b.retainFrom); target > b.reclaimedTo {
		r.gc[GCPruned] = target - b.reclaimedTo
		r.n = target
	}
	if req.DeletedSwept && b.deleted {
		// Latch only when no write is in flight AND no write finished
		// since the sweep snapshotted the blob (FinishGen echo): an
		// assigned-but-unfinished version may still upload metadata or
		// chunks after this sweep ran, and a write that finished mid-
		// sweep may have uploaded after the sweep listed the providers.
		// Either way the blob stays in GCWork for one more sweep; a writer
		// that crashed without finishing is aborted once its lease lapses.
		allFinished := req.FinishGen == b.finishGen
		for i := range b.versions {
			if !b.versions[i].committed {
				allFinished = false
				break
			}
		}
		r.flag = r.flag || allFinished
	}
	// The GC totals move inside the journal bracket: a concurrent Compact
	// excludes mutators, so its snapshot either contains this delta or the
	// WAL it keeps contains the record — never neither.
	err = m.commit(b, &r)
	b.mu.Unlock()
	m.journalEnd()
	if err != nil {
		return err
	}
	m.maybeCompact()
	return nil
}

// MaintReport folds one engine's pass delta into the cumulative totals.
// Deltas carry their own pass counts: an engine whose earlier report RPC
// failed resends the lost delta merged into its next report. The counters
// the manager owns (see Counter.owned) are skipped.
func (m *Manager) MaintReport(delta *Counters) {
	m.maintMu.Lock()
	defer m.maintMu.Unlock()
	for id := range delta {
		if !Counter(id).owned() {
			m.maint[id] += delta[id]
		}
	}
}

// count adds one to a counter the manager keeps itself.
func (m *Manager) count(id Counter) {
	m.maintMu.Lock()
	m.maint[id]++
	m.maintMu.Unlock()
}

// MaintCounter reads one cumulative counter — what /metrics scrapes per
// family, so only GCPending (the number of blobs with outstanding GC work)
// and LeaseActive (the versions holding a lease) pay for a scan.
func (m *Manager) MaintCounter(id Counter) uint64 {
	switch id {
	case GCPending:
		return uint64(len(m.GCWork()))
	case LeaseTTLMs:
		return m.leaseTTLMs.Load()
	case LeaseActive:
		return m.activeLeases()
	}
	m.maintMu.Lock()
	defer m.maintMu.Unlock()
	return m.maint[id]
}

// MaintStats reports every cumulative counter, the kept ones as one
// consistent snapshot.
func (m *Manager) MaintStats() *Counters {
	m.maintMu.Lock()
	cp := m.maint
	m.maintMu.Unlock()
	for _, id := range []Counter{GCPending, LeaseTTLMs, LeaseActive} {
		cp[id] = m.MaintCounter(id)
	}
	return &cp
}

// Server exposes a Manager over RPC.
type Server struct {
	m   *Manager
	srv *rpc.Server
}

// NewServer exposes a Manager over RPC at addr: a fresh volatile one
// (NewManager), or one recovered with OpenManager — the hook that makes a
// version manager restartable in place.
func NewServer(network rpc.Network, addr string, m *Manager) *Server {
	s := &Server{m: m, srv: rpc.NewServer(network, addr)}
	// The leader gate runs before every handler. HA control methods stay
	// answerable on every role: replication is how a standby follows, and
	// discovery/status probes are how clients find the leader at all.
	s.srv.SetGate(func(method string) error {
		switch method {
		case MethodReplicate, MethodWhoIsLeader, MethodHAStatus:
			return nil
		}
		return m.leaderGate()
	})
	rpc.HandleMsg(s.srv, MethodReplicate, func() *ReplicateReq { return &ReplicateReq{} },
		func(req *ReplicateReq) (*ReplicateResp, error) { return s.m.HandleReplicate(req) })
	rpc.HandleMsg(s.srv, MethodWhoIsLeader, func() *Ack { return &Ack{} },
		func(*Ack) (*WhoIsLeaderResp, error) { return s.m.WhoIsLeader(), nil })
	rpc.HandleMsg(s.srv, MethodHAStatus, func() *Ack { return &Ack{} },
		func(*Ack) (*HAStatusResp, error) { return s.m.HAStatus(), nil })
	rpc.HandleMsg(s.srv, MethodCreate, func() *CreateReq { return &CreateReq{} },
		func(req *CreateReq) (*CreateResp, error) {
			id, err := s.m.Create(req.ChunkSize, req.Replication)
			if err != nil {
				return nil, err
			}
			return &CreateResp{BlobID: id}, nil
		})
	rpc.HandleMsg(s.srv, MethodInfo, func() *BlobRef { return &BlobRef{} },
		func(req *BlobRef) (*InfoResp, error) { return s.m.Info(req.BlobID) })
	rpc.HandleMsg(s.srv, MethodAssign, func() *AssignReq { return &AssignReq{} },
		func(req *AssignReq) (*AssignResp, error) { return s.m.Assign(req) })
	rpc.HandleMsg(s.srv, MethodCommit, func() *VersionRef { return &VersionRef{} },
		func(req *VersionRef) (*Ack, error) {
			return &Ack{}, s.m.Commit(req.BlobID, req.Version)
		})
	rpc.HandleMsg(s.srv, MethodAbort, func() *AbortReq { return &AbortReq{} },
		func(req *AbortReq) (*Ack, error) {
			return &Ack{}, s.m.Abort(req.BlobID, req.Version, req.Woven)
		})
	rpc.HandleMsg(s.srv, MethodRenewLease, func() *VersionRef { return &VersionRef{} },
		func(req *VersionRef) (*Ack, error) {
			return &Ack{}, s.m.RenewLease(req.BlobID, req.Version)
		})
	rpc.HandleMsg(s.srv, MethodUnwoven, func() *Ack { return &Ack{} },
		func(*Ack) (*UnwovenResp, error) {
			return &UnwovenResp{Items: s.m.UnwovenAborts()}, nil
		})
	rpc.HandleMsg(s.srv, MethodMarkWoven, func() *VersionRef { return &VersionRef{} },
		func(req *VersionRef) (*Ack, error) {
			return &Ack{}, s.m.MarkWoven(req.BlobID, req.Version)
		})
	rpc.HandleMsg(s.srv, MethodLatest, func() *BlobRef { return &BlobRef{} },
		func(req *BlobRef) (*LatestResp, error) { return s.m.Latest(req.BlobID) })
	rpc.HandleMsg(s.srv, MethodVersionInfo, func() *VersionRef { return &VersionRef{} },
		func(req *VersionRef) (*VersionInfoResp, error) {
			return s.m.VersionInfo(req.BlobID, req.Version)
		})
	rpc.HandleMsg(s.srv, MethodWaitPublished, func() *VersionRef { return &VersionRef{} },
		func(req *VersionRef) (*Ack, error) {
			return &Ack{}, s.m.WaitPublished(req.BlobID, req.Version)
		})
	rpc.HandleMsg(s.srv, MethodList, func() *Ack { return &Ack{} },
		func(*Ack) (*ListResp, error) { return &ListResp{IDs: s.m.List()}, nil })
	rpc.HandleMsg(s.srv, MethodSetRetention, func() *RetentionReq { return &RetentionReq{} },
		func(req *RetentionReq) (*Ack, error) {
			return &Ack{}, s.m.SetRetention(req.BlobID, req.KeepLast)
		})
	rpc.HandleMsg(s.srv, MethodPrune, func() *PruneReq { return &PruneReq{} },
		func(req *PruneReq) (*PruneResp, error) {
			floor, err := s.m.Prune(req.BlobID, req.UpTo)
			if err != nil {
				return nil, err
			}
			return &PruneResp{RetainFrom: floor}, nil
		})
	rpc.HandleMsg(s.srv, MethodDelete, func() *BlobRef { return &BlobRef{} },
		func(req *BlobRef) (*Ack, error) { return &Ack{}, s.m.Delete(req.BlobID) })
	rpc.HandleMsg(s.srv, MethodGCWork, func() *Ack { return &Ack{} },
		func(*Ack) (*ListResp, error) { return &ListResp{IDs: s.m.GCWork()}, nil })
	rpc.HandleMsg(s.srv, MethodGCStatus, func() *BlobRef { return &BlobRef{} },
		func(req *BlobRef) (*GCStatusResp, error) { return s.m.GCStatus(req.BlobID) })
	rpc.HandleMsg(s.srv, MethodGCReport, func() *GCReportReq { return &GCReportReq{} },
		func(req *GCReportReq) (*Ack, error) { return &Ack{}, s.m.GCReport(req) })
	rpc.HandleMsg(s.srv, MethodMaintReport, func() *Counters { return &Counters{} },
		func(req *Counters) (*Ack, error) {
			s.m.MaintReport(req)
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodMaintStats, func() *Ack { return &Ack{} },
		func(*Ack) (*Counters, error) { return s.m.MaintStats(), nil })
	rpc.HandleMsg(s.srv, MethodCompact, func() *Ack { return &Ack{} },
		func(*Ack) (*CompactResp, error) {
			dropped, err := s.m.Compact()
			if err != nil {
				return nil, err
			}
			return &CompactResp{CompactedVersions: dropped, Persistent: s.m.Persistent()}, nil
		})
	return s
}

// Start begins serving.
func (s *Server) Start() error { return s.srv.Start() }

// Close stops serving.
func (s *Server) Close() { s.srv.Close() }

// Addr returns the service address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Manager exposes the underlying state (used by tests and tools).
func (s *Server) Manager() *Manager { return s.m }

// SetRPCObserver attaches an observer to the version manager's RPC server
// (per-method latency/bytes/error metrics).
func (s *Server) SetRPCObserver(o rpc.ServerObserver) { s.srv.SetObserver(o) }

// SetRPCTracer attaches a tracer to the RPC server: every inbound
// sampled request records a server span under the caller's trace.
func (s *Server) SetRPCTracer(t *trace.Tracer) { s.srv.SetTracer(t) }
