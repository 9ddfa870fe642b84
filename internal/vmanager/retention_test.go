package vmanager

import (
	"errors"
	"testing"
	"time"
)

// writeN assigns and commits n sequential writes of size bytes each.
func writeN(t *testing.T, m *Manager, id uint64, n int, size uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := m.Assign(&AssignReq{BlobID: id, Size: size, Append: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(id, resp.Version); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPruneFloorSemantics(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	writeN(t, m, id, 10, 64)

	// The newest published version can never be pruned.
	if _, err := m.Prune(id, 10); !errors.Is(err, ErrRetainLatest) {
		t.Fatalf("prune of newest version: %v", err)
	}
	floor, err := m.Prune(id, 7)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 8 {
		t.Fatalf("floor = %d, want 8", floor)
	}
	// The floor is monotone: a smaller prune is a no-op.
	if floor, _ = m.Prune(id, 3); floor != 8 {
		t.Fatalf("floor after smaller prune = %d, want 8", floor)
	}
	// Reads below the floor come back Reclaimed but keep their sizes.
	vi, err := m.VersionInfo(id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !vi.Reclaimed || vi.SizeBytes != 5*64 {
		t.Fatalf("v5 info = %+v, want reclaimed with size 320", vi)
	}
	if vi, _ = m.VersionInfo(id, 8); vi.Reclaimed {
		t.Fatal("floor version marked reclaimed")
	}
	// Beyond-history queries still fail loudly, not as reclaimed.
	if _, err := m.VersionInfo(id, 11); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("VersionInfo(11) = %v", err)
	}
}

func TestRetentionPolicyChasesPublishes(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	if err := m.SetRetention(id, 3); err != nil {
		t.Fatal(err)
	}
	writeN(t, m, id, 2, 64)
	if info, _ := m.Info(id); info.RetainFrom != 1 {
		t.Fatalf("floor with 2 of 3 retained = %d, want 1", info.RetainFrom)
	}
	writeN(t, m, id, 8, 64)
	info, _ := m.Info(id)
	if info.RetainFrom != 8 || info.KeepLast != 3 {
		t.Fatalf("info = %+v, want floor 8 keep 3", info)
	}
	// Disabling the policy never lowers an already-raised floor.
	if err := m.SetRetention(id, 0); err != nil {
		t.Fatal(err)
	}
	if info, _ = m.Info(id); info.RetainFrom != 8 {
		t.Fatalf("floor after policy removal = %d, want 8", info.RetainFrom)
	}
}

func TestGCWorkAndReportAdvanceFrontier(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	writeN(t, m, id, 6, 64)
	if work := m.GCWork(); len(work) != 0 {
		t.Fatalf("GC work before prune: %v", work)
	}
	if _, err := m.Prune(id, 4); err != nil {
		t.Fatal(err)
	}
	work := m.GCWork()
	if len(work) != 1 || work[0] != id {
		t.Fatalf("GC work = %v, want [%d]", work, id)
	}
	st, err := m.GCStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	// Versions covers [ReclaimedTo, Published]: the pruned range plus
	// every retained version for the liveness union walk.
	if st.ReclaimedTo != 1 || st.RetainFrom != 5 || len(st.Versions) != 6 {
		t.Fatalf("status = %+v", st)
	}
	if err := m.GCReport(&GCReportReq{BlobID: id, ReclaimedTo: 5, Chunks: 4, Bytes: 256, Nodes: 9}); err != nil {
		t.Fatal(err)
	}
	if work := m.GCWork(); len(work) != 0 {
		t.Fatalf("GC work after sweep: %v", work)
	}
	stats := m.MaintStats()
	if stats[GCChunks] != 4 || stats[GCBytes] != 256 || stats[GCNodes] != 9 || stats[GCPruned] != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	// A stale or overshooting report cannot push the frontier past the floor.
	if err := m.GCReport(&GCReportReq{BlobID: id, ReclaimedTo: 99}); err != nil {
		t.Fatal(err)
	}
	if st, _ = m.GCStatus(id); st.ReclaimedTo != 5 {
		t.Fatalf("frontier overshot to %d", st.ReclaimedTo)
	}
}

func TestDeleteRefusesOperationsAndWakesWaiters(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	writeN(t, m, id, 2, 64)

	waited := make(chan error, 1)
	go func() { waited <- m.WaitPublished(id, 5) }()
	time.Sleep(10 * time.Millisecond) // let the waiter park

	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		if !errors.Is(err, ErrBlobDeleted) {
			t.Fatalf("woken waiter got %v, want ErrBlobDeleted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by delete")
	}

	if _, err := m.Info(id); !errors.Is(err, ErrBlobDeleted) {
		t.Fatalf("Info after delete = %v", err)
	}
	if _, err := m.Assign(&AssignReq{BlobID: id, Size: 1, Append: true}); !errors.Is(err, ErrBlobDeleted) {
		t.Fatalf("Assign after delete = %v", err)
	}
	if err := m.Delete(id); err != nil {
		t.Fatalf("delete not idempotent: %v", err)
	}
	for _, listed := range m.List() {
		if listed == id {
			t.Fatal("deleted blob still listed")
		}
	}
	// Deleted blobs become GC work until the sweep confirms.
	work := m.GCWork()
	if len(work) != 1 || work[0] != id {
		t.Fatalf("GC work after delete = %v", work)
	}
	st, err := m.GCStatus(id)
	if err != nil || !st.Deleted {
		t.Fatalf("status after delete = %+v, %v", st, err)
	}
	st, err = m.GCStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GCReport(&GCReportReq{BlobID: id, DeletedSwept: true, FinishGen: st.FinishGen}); err != nil {
		t.Fatal(err)
	}
	if work := m.GCWork(); len(work) != 0 {
		t.Fatalf("GC work after delete sweep: %v", work)
	}
}

// A blob deleted while a write is in flight must keep re-sweeping until
// the write finishes: the writer's late metadata/chunk uploads land after
// the first sweep, and a latched tombstone would leak them forever.
func TestDeleteDefersSweepLatchUntilWritesDrain(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	writeN(t, m, id, 1, 64)
	resp, err := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	// Sweep reports done, but the in-flight v2 blocks the latch.
	st, err := m.GCStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GCReport(&GCReportReq{BlobID: id, DeletedSwept: true, FinishGen: st.FinishGen}); err != nil {
		t.Fatal(err)
	}
	if work := m.GCWork(); len(work) != 1 {
		t.Fatalf("deleted blob with in-flight write left GC work: %v", work)
	}
	// The writer's commit is refused (blob deleted) but recorded.
	if err := m.Commit(id, resp.Version); !errors.Is(err, ErrBlobDeleted) {
		t.Fatalf("commit on deleted blob: %v, want ErrBlobDeleted", err)
	}
	// A sweep that snapshotted its status BEFORE that commit must not
	// latch: its provider listings may predate the writer's uploads.
	if err := m.GCReport(&GCReportReq{BlobID: id, DeletedSwept: true, FinishGen: st.FinishGen}); err != nil {
		t.Fatal(err)
	}
	if work := m.GCWork(); len(work) != 1 {
		t.Fatalf("stale-generation sweep latched the tombstone: %v", work)
	}
	// A fresh sweep (status taken after the drain) latches.
	st, err = m.GCStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GCReport(&GCReportReq{BlobID: id, DeletedSwept: true, FinishGen: st.FinishGen}); err != nil {
		t.Fatal(err)
	}
	if work := m.GCWork(); len(work) != 0 {
		t.Fatalf("GC work after drained delete sweep: %v", work)
	}
}

// TestFloorNeverPassesNewestLiveVersion: the retention floor must stop at
// the newest NON-FAILED published version. A failed frontier version has
// no content (and possibly no tree), so pruning the live snapshot beneath
// it would reclaim the very tree Assign hands to writers as PubVersion —
// re-opening the abort poison cascade via the GC.
func TestFloorNeverPassesNewestLiveVersion(t *testing.T) {
	m := NewManager()
	id, err := m.Create(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	// v1 commits; v2 aborts (published frontier = 2, failed).
	a1, err := m.Assign(&AssignReq{BlobID: id, Size: 600})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(id, a1.Version); err != nil {
		t.Fatal(err)
	}
	a2, err := m.Assign(&AssignReq{BlobID: id, Size: 600})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(id, a2.Version); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRetention(id, 1); err != nil {
		t.Fatal(err)
	}
	info, err := m.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.RetainFrom != 1 {
		t.Fatalf("retention floor passed the newest live version: retainFrom = %d, want 1", info.RetainFrom)
	}
	// A new Assign must still reference v1 as the published snapshot.
	a3, err := m.Assign(&AssignReq{BlobID: id, Size: 100, Offset: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a3.PubVersion != 1 {
		t.Fatalf("PubVersion = %d, want 1 (newest non-failed)", a3.PubVersion)
	}
}
