package vmanager

import (
	"errors"
	"math"
	"testing"

	"repro/internal/durable"
	"repro/internal/wire"
)

// openM opens a persistent manager rooted at dir, failing the test on
// error.
func openM(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := OpenManager(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// assignCommit runs one write end-to-end: assign the next version and
// commit it.
func assignCommit(t *testing.T, m *Manager, blob, size uint64) uint64 {
	t.Helper()
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: size, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(blob, resp.Version); err != nil {
		t.Fatal(err)
	}
	return resp.Version
}

func TestManagerRecoversFullState(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)

	// Two blobs with different shapes and policies.
	b1, err := m.Create(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.Create(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		assignCommit(t, m, b1, 1000)
	}
	assignCommit(t, m, b2, 8192)
	// An aborted write in the middle of b1's history.
	ar, err := m.Assign(&AssignReq{BlobID: b1, Size: 500, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(b1, ar.Version, false); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRetention(b1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Prune(b2, 1); !errors.Is(err, ErrRetainLatest) {
		t.Fatalf("prune latest = %v", err)
	}
	// A sweep reports progress on b1.
	if err := m.GCReport(&GCReportReq{BlobID: b1, ReclaimedTo: 3, Chunks: 5, Bytes: 5000, Nodes: 9}); err != nil {
		t.Fatal(err)
	}
	wantInfo, err := m.Info(b1)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := m.MaintStats()
	// Simulated kill -9: no Close.

	re := openM(t, dir)
	defer re.Close()
	gotInfo, err := re.Info(b1)
	if err != nil {
		t.Fatal(err)
	}
	if *gotInfo != *wantInfo {
		t.Errorf("recovered info = %+v, want %+v", gotInfo, wantInfo)
	}
	gotStats := re.MaintStats()
	if *gotStats != *wantStats {
		t.Errorf("recovered gc stats = %+v, want %+v", gotStats, wantStats)
	}
	// The aborted version is still failed, the committed ones still read.
	vi, err := re.VersionInfo(b1, ar.Version)
	if err != nil || !vi.Failed || !vi.Published {
		t.Errorf("aborted version after recovery: %+v, %v", vi, err)
	}
	if vi, err := re.VersionInfo(b2, 1); err != nil || vi.SizeBytes != 8192 {
		t.Errorf("b2 v1 after recovery: %+v, %v", vi, err)
	}
	// Version numbering continues where it left off.
	next, err := re.Assign(&AssignReq{BlobID: b1, Size: 1, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != ar.Version+1 {
		t.Errorf("next version after recovery = %d, want %d", next.Version, ar.Version+1)
	}
}

func TestRecoveryAbortsInFlightWrites(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	b, _ := m.Create(512, 1)
	assignCommit(t, m, b, 512)
	// Two writes in flight at crash time: one never finishes, one commits
	// out of order so it is published but blocked behind the first.
	r1, err := m.Assign(&AssignReq{BlobID: b, Size: 100, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Assign(&AssignReq{BlobID: b, Size: 100, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(b, r2.Version); err != nil {
		t.Fatal(err)
	}
	if lat, _ := m.Latest(b); lat.Version != 1 {
		t.Fatalf("pre-crash published = %d, want 1 (blocked by in-flight v2)", lat.Version)
	}

	re := openM(t, dir)
	defer re.Close()
	// v2 was never finished: recovery aborts it, which unwedges the
	// frontier; v3 committed before the crash and must publish.
	lat, err := re.Latest(b)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Version != r2.Version {
		t.Errorf("published after recovery = %d, want %d", lat.Version, r2.Version)
	}
	vi, err := re.VersionInfo(b, r1.Version)
	if err != nil || !vi.Failed {
		t.Errorf("in-flight version after recovery: %+v, %v (want failed)", vi, err)
	}
	if vi, err := re.VersionInfo(b, r2.Version); err != nil || vi.Failed || !vi.Published {
		t.Errorf("committed version after recovery: %+v, %v", vi, err)
	}
	// The late writer's commit of the aborted version is rejected, not
	// silently accepted.
	if err := re.Commit(b, r1.Version); err == nil {
		t.Error("commit of recovery-aborted version succeeded")
	}
}

func TestRecoveryReconstructsFloorCap(t *testing.T) {
	// An in-flight write assigned against an old snapshot must keep
	// capping the retention floor after recovery of everything EXCEPT
	// that write — recovery aborts it, so the cap lifts and the deferred
	// prune completes, exactly as if the writer had aborted live.
	dir := t.TempDir()
	m := openM(t, dir)
	b, _ := m.Create(256, 1)
	for i := 0; i < 5; i++ {
		assignCommit(t, m, b, 256)
	}
	// In-flight writer pinned at snapshot 5.
	if _, err := m.Assign(&AssignReq{BlobID: b, Size: 10, Append: true}); err != nil {
		t.Fatal(err)
	}
	assignCommit(t, m, b, 256) // v7 commits; frontier stuck at 5
	if floor, err := m.Prune(b, 4); err != nil || floor != 5 {
		t.Fatalf("prune under in-flight cap: floor=%d err=%v (want capped at 5)", floor, err)
	}

	re := openM(t, dir)
	defer re.Close()
	info, err := re.Info(b)
	if err != nil {
		t.Fatal(err)
	}
	// v6 aborted by recovery → frontier advances to 7, cap lifts, the
	// journaled wantFloor (5) applies in full.
	if info.Published != 7 {
		t.Errorf("published = %d, want 7", info.Published)
	}
	if info.RetainFrom != 5 {
		t.Errorf("retain-from after recovery = %d, want 5 (deferred prune completed)", info.RetainFrom)
	}
}

func TestDeletedBlobStaysDeletedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	b, _ := m.Create(128, 1)
	assignCommit(t, m, b, 128)
	if err := m.Delete(b); err != nil {
		t.Fatal(err)
	}
	re := openM(t, dir)
	defer re.Close()
	if _, err := re.Info(b); !errors.Is(err, ErrBlobDeleted) {
		t.Fatalf("Info on deleted blob after recovery = %v", err)
	}
	// Still pending GC work: the deletion was never swept.
	work := re.GCWork()
	if len(work) != 1 || work[0] != b {
		t.Errorf("GCWork after recovery = %v, want [%d]", work, b)
	}
	// Sweep it, restart again: gone from the work queue for good.
	st, err := re.GCStatus(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.GCReport(&GCReportReq{BlobID: b, DeletedSwept: true, FinishGen: st.FinishGen}); err != nil {
		t.Fatal(err)
	}
	re2 := openM(t, dir)
	defer re2.Close()
	if work := re2.GCWork(); len(work) != 0 {
		t.Errorf("GCWork after swept restart = %v, want empty", work)
	}
}

func TestCompactionFoldsReclaimedHistory(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	b, _ := m.Create(64, 1)
	var last uint64
	for i := 0; i < 10; i++ {
		last = assignCommit(t, m, b, 64)
	}
	if _, err := m.Prune(b, 7); err != nil {
		t.Fatal(err)
	}
	// The sweep finishes: versions 1..7 reclaimed.
	if err := m.GCReport(&GCReportReq{BlobID: b, ReclaimedTo: 8}); err != nil {
		t.Fatal(err)
	}
	dropped, err := m.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 7 {
		t.Errorf("compacted %d versions, want 7", dropped)
	}
	// Compacted versions answer as reclaimed, not as errors; retained
	// versions still carry their descriptors.
	vi, err := m.VersionInfo(b, 3)
	if err != nil || !vi.Reclaimed {
		t.Errorf("compacted version info = %+v, %v", vi, err)
	}
	if vi, err := m.VersionInfo(b, 9); err != nil || vi.Reclaimed || vi.SizeBytes != 9*64 {
		t.Errorf("retained version info = %+v, %v", vi, err)
	}
	// Writes continue with correct numbering, and recovery from the
	// snapshot (plus post-snapshot records) reproduces everything.
	if v := assignCommit(t, m, b, 64); v != last+1 {
		t.Errorf("post-compaction version = %d, want %d", v, last+1)
	}
	re := openM(t, dir)
	defer re.Close()
	info, err := re.Info(b)
	if err != nil {
		t.Fatal(err)
	}
	if info.Published != last+1 || info.RetainFrom != 8 {
		t.Errorf("recovered info after compaction = %+v", info)
	}
	if vi, err := re.VersionInfo(b, 2); err != nil || !vi.Reclaimed {
		t.Errorf("compacted version after recovery = %+v, %v", vi, err)
	}
	if st, err := re.GCStatus(b); err != nil || st.ReclaimedTo != 8 {
		t.Errorf("gc status after recovery: %+v, %v", st, err)
	}
}

func TestReopenAfterCompactingSweptDeletedBlob(t *testing.T) {
	// A deleted-and-swept blob compacts to base == lastAssigned while its
	// publish frontier stays frozen where the delete left it. Recovery's
	// in-flight scan must skip the compacted (necessarily finished) range
	// instead of failing to boot on it.
	dir := t.TempDir()
	m := openM(t, dir)
	b, _ := m.Create(64, 1)
	assignCommit(t, m, b, 64)
	// A write in flight when the delete lands: publication freezes at 1.
	r, err := m.Assign(&AssignReq{BlobID: b, Size: 64, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(b, r.Version); !errors.Is(err, ErrBlobDeleted) {
		t.Fatalf("commit on deleted blob = %v", err)
	}
	st, err := m.GCStatus(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GCReport(&GCReportReq{BlobID: b, DeletedSwept: true, FinishGen: st.FinishGen}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	// Both a snapshot-based and a replay-based reopen must succeed.
	re := openM(t, dir)
	if work := re.GCWork(); len(work) != 0 {
		t.Errorf("GCWork after reopen = %v", work)
	}
	re2 := openM(t, dir)
	defer re2.Close()
	if _, err := re2.Info(b); !errors.Is(err, ErrBlobDeleted) {
		t.Errorf("Info after double reopen = %v", err)
	}
}

func TestAutoCompactionBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.compactEvery = 64
	b, _ := m.Create(32, 1)
	for i := 0; i < 200; i++ {
		assignCommit(t, m, b, 32)
	}
	if got := m.j.Records(); got > 64+2 {
		t.Errorf("journal holds %d records despite compactEvery=64", got)
	}
	m.Close()
	re := openM(t, dir)
	defer re.Close()
	lat, err := re.Latest(b)
	if err != nil || lat.Version != 200 {
		t.Errorf("latest after auto-compacted recovery = %+v, %v", lat, err)
	}
}

func TestVolatileManagerUnaffected(t *testing.T) {
	m := NewManager()
	b, _ := m.Create(64, 1)
	assignCommit(t, m, b, 64)
	if dropped, err := m.Compact(); err != nil || dropped != 0 {
		t.Errorf("volatile Compact = %d, %v", dropped, err)
	}
	if m.Persistent() {
		t.Error("volatile manager claims persistence")
	}
	if err := m.Close(); err != nil {
		t.Error(err)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	// Opening, doing nothing, and reopening must be a fixed point: the
	// recovery aborts are journaled, so a crash loop converges instead of
	// compounding.
	dir := t.TempDir()
	m := openM(t, dir)
	b, _ := m.Create(64, 1)
	if _, err := m.Assign(&AssignReq{BlobID: b, Size: 64}); err != nil {
		t.Fatal(err)
	}
	m1 := openM(t, dir) // aborts v1
	lat1, _ := m1.Latest(b)
	m2 := openM(t, dir) // nothing left to abort
	defer m2.Close()
	lat2, err := m2.Latest(b)
	if err != nil {
		t.Fatal(err)
	}
	if lat1.Version != lat2.Version || lat2.Version != 1 {
		t.Errorf("published after repeated recovery: %d then %d, want 1", lat1.Version, lat2.Version)
	}
	if vi, _ := m2.VersionInfo(b, 1); vi == nil || !vi.Failed {
		t.Errorf("v1 should remain aborted after repeated recovery: %+v", vi)
	}
}

// TestConcurrentCommitsGroupCommitJournal drives 16 concurrent writers
// (each its own blob: create, assign, commit) through an fsync'd journal
// and checks the durability cost is amortized: the WAL must report at
// most one fsync per append — strictly fewer whenever any two transitions
// coalesced — and a restart must recover every acknowledged transition.
func TestConcurrentCommitsGroupCommitJournal(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	done := make(chan uint64, writers)
	for w := 0; w < writers; w++ {
		go func() {
			id, err := m.Create(4096, 1)
			if err != nil {
				t.Error(err)
				done <- 0
				return
			}
			resp, err := m.Assign(&AssignReq{BlobID: id, Size: 8192})
			if err != nil {
				t.Error(err)
				done <- 0
				return
			}
			if err := m.Commit(id, resp.Version); err != nil {
				t.Error(err)
				done <- 0
				return
			}
			done <- id
		}()
	}
	ids := make([]uint64, 0, writers)
	for i := 0; i < writers; i++ {
		if id := <-done; id != 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) != writers {
		t.Fatalf("only %d/%d writers completed", len(ids), writers)
	}
	st := m.JournalStats()
	if st.Appends != 3*writers {
		t.Errorf("Appends = %d, want %d (create+assign+commit per writer)", st.Appends, 3*writers)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Errorf("Syncs = %d outside (0, Appends=%d]", st.Syncs, st.Appends)
	}
	t.Logf("%d journaled transitions in %d fsyncs (%.2f syncs/append)",
		st.Appends, st.Syncs, float64(st.Syncs)/float64(st.Appends))
	m.Close()

	re := openM(t, dir)
	defer re.Close()
	for _, id := range ids {
		latest, err := re.Latest(id)
		if err != nil || latest.Version != 1 || latest.SizeBytes != 8192 {
			t.Fatalf("blob %d after recovery: %+v, %v", id, latest, err)
		}
	}
}

// TestOpenManagerRejectsCorruptSnapshotCount: a snapshot whose version
// count exceeds the bytes left must fail OpenManager with an error, not
// size an allocation from the count.
func TestOpenManagerRejectsCorruptSnapshotCount(t *testing.T) {
	e := wire.NewEncoder(0)
	e.PutU8(snapFormat)
	e.PutU64(2) // next blob id
	for range journaledCounters {
		e.PutU64(0)
	}
	e.PutU64(0) // epoch
	e.PutString("")
	e.PutU32(1) // blobs
	e.PutU64(1) // blob id
	e.PutU64(64)
	e.PutU32(1)
	for range 8 { // base .. finishGen
		e.PutU64(0)
	}
	e.PutBool(false)
	e.PutBool(false)
	e.PutU32(math.MaxUint32) // versions
	dir := t.TempDir()
	log, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Compact(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if m, err := OpenManager(dir, Options{}); !errors.Is(err, wire.ErrTooLarge) {
		if m != nil {
			m.Close()
		}
		t.Fatalf("OpenManager = %v, want ErrTooLarge", err)
	}
}
