package vmanager

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
)

// fakeClock drives Manager.now deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAssignGrantsJournaledLease(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	m.SetLeaseTTL(time.Minute)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 500, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LeaseTTLMs != 60_000 {
		t.Fatalf("LeaseTTLMs = %d, want 60000", resp.LeaseTTLMs)
	}
	st := m.MaintStats()
	if st[LeaseGranted] != 1 || st[LeaseActive] != 1 {
		t.Fatalf("granted=%d active=%d, want 1 and 1", st[LeaseGranted], st[LeaseActive])
	}
	// Simulated kill -9: no Close. The lease record rode the journal, so
	// recovery knows this writer may still be alive and spares the version
	// instead of the seed's abort-everything-in-flight.
	re := openM(t, dir)
	defer re.Close()
	if err := re.Commit(blob, resp.Version); err != nil {
		t.Fatalf("commit of leased version after vmanager restart: %v", err)
	}
	latest, err := re.Latest(blob)
	if err != nil || latest.Version != resp.Version {
		t.Fatalf("latest = %+v, %v; want version %d", latest, err, resp.Version)
	}
}

func TestRecoveryAbortsExpiredLease(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	m.SetLeaseTTL(10 * time.Millisecond)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 500, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // lease lapses; writer is "gone"
	// Kill -9 and reopen: recovery aborts the expired version.
	re := openM(t, dir)
	defer re.Close()
	re.SetLeaseTTL(10 * time.Millisecond)
	if err := re.Commit(blob, resp.Version); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("commit after expiry-abort = %v, want ErrLeaseExpired", err)
	}
	// The frontier is free: a fresh writer publishes immediately.
	v := assignCommit(t, re, blob, 600)
	latest, err := re.Latest(blob)
	if err != nil || latest.Version != v {
		t.Fatalf("latest = %+v, %v; want version %d", latest, err, v)
	}
	// The recovery abort is unwoven GC debt.
	unwoven := re.UnwovenAborts()
	if len(unwoven) != 1 || unwoven[0].Version != resp.Version {
		t.Fatalf("unwoven = %+v, want the recovery-aborted version %d", unwoven, resp.Version)
	}
}

func TestRenewLeaseJournaledAndGraced(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	clk := newFakeClock()
	clk.t = time.Now() // reopen below replays against the real clock
	m.now = clk.now
	m.SetLeaseTTL(time.Hour)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 100, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Minute)
	if err := m.RenewLease(blob, resp.Version); err != nil {
		t.Fatal(err)
	}
	if st := m.MaintStats(); st[LeaseRenewed] != 1 {
		t.Fatalf("renewed = %d, want 1", st[LeaseRenewed])
	}
	// Kill -9: the renew record must replay, or recovery would see the
	// original grant (now closer to lapsing) instead of the extension.
	re := openM(t, dir)
	defer re.Close()
	if err := re.Commit(blob, resp.Version); err != nil {
		t.Fatalf("commit of renewed version after restart: %v", err)
	}
}

func TestRenewAfterLapseBeforeExpiryStillSucceeds(t *testing.T) {
	m := NewManager()
	defer m.Close()
	clk := newFakeClock()
	m.now = clk.now
	m.SetLeaseTTL(10 * time.Millisecond)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 100, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(50 * time.Millisecond) // lapsed, but expiry has not run
	if err := m.RenewLease(blob, resp.Version); err != nil {
		t.Fatalf("renew after lapse but before expiry pickup = %v, want grace", err)
	}
	if n, err := m.ExpireLeases(context.Background(), nil); n != 0 || err != nil {
		t.Fatalf("ExpireLeases after renewal = %d, %v; want 0 expired", n, err)
	}
	clk.advance(50 * time.Millisecond) // renewed lease lapses too
	if n, _ := m.ExpireLeases(context.Background(), nil); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}
	if err := m.RenewLease(blob, resp.Version); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("renew after abort = %v, want ErrLeaseExpired", err)
	}
}

func TestExpireLeasesWeavesServerSide(t *testing.T) {
	m := NewManager()
	defer m.Close()
	clk := newFakeClock()
	m.now = clk.now
	m.SetLeaseTTL(20 * time.Millisecond)
	blob, err := m.Create(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, m, blob, 100) // v1: ten chunks of published content
	resp, err := m.Assign(&AssignReq{BlobID: blob, Offset: 20, Size: 30})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(25 * time.Millisecond)

	var got []meta.IdentityInput
	weaver := func(_ context.Context, in meta.IdentityInput) error {
		got = append(got, in)
		return nil
	}
	n, err := m.ExpireLeases(context.Background(), weaver)
	if n != 1 || err != nil {
		t.Fatalf("ExpireLeases = %d, %v; want 1", n, err)
	}
	want := meta.IdentityInput{
		Blob: blob, Version: resp.Version,
		StartChunk: 2, EndChunk: 5, SizeChunks: 10,
		SrcVersion: 1, SrcSizeChunks: 10,
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("weaver input = %+v, want %+v", got, want)
	}
	// Woven server-side: no GC debt.
	if unwoven := m.UnwovenAborts(); len(unwoven) != 0 {
		t.Fatalf("unwoven = %+v, want none", unwoven)
	}
	// The late writer gets a typed refusal, not a silent publish.
	if err := m.Commit(blob, resp.Version); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late commit = %v, want ErrLeaseExpired", err)
	}
	// Frontier advanced over the abort: the next writer publishes.
	v := assignCommit(t, m, blob, 50)
	latest, err := m.Latest(blob)
	if err != nil || latest.Version != v {
		t.Fatalf("latest = %+v, %v; want %d", latest, err, v)
	}
	if st := m.MaintStats(); st[LeaseExpired] != 1 || st[LeaseActive] != 0 {
		t.Fatalf("expired=%d active=%d, want 1 and 0", st[LeaseExpired], st[LeaseActive])
	}
}

func TestExpiryWeaveFailureFallsToGC(t *testing.T) {
	m := NewManager()
	defer m.Close()
	clk := newFakeClock()
	m.now = clk.now
	m.SetLeaseTTL(10 * time.Millisecond)
	blob, err := m.Create(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, m, blob, 40)
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 20, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(15 * time.Millisecond)
	weaveErr := errors.New("metadata plane down")
	n, err := m.ExpireLeases(context.Background(), func(context.Context, meta.IdentityInput) error { return weaveErr })
	if n != 1 || err != nil {
		t.Fatalf("ExpireLeases = %d, %v; want 1 (weave failure still aborts)", n, err)
	}
	unwoven := m.UnwovenAborts()
	if len(unwoven) != 1 || unwoven[0].Version != resp.Version || unwoven[0].SrcVersion != 1 {
		t.Fatalf("unwoven = %+v, want version %d over src 1", unwoven, resp.Version)
	}
	// The GC sweep weaves it and marks it done; marking is idempotent.
	if err := m.MarkWoven(blob, resp.Version); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkWoven(blob, resp.Version); err != nil {
		t.Fatal(err)
	}
	if unwoven := m.UnwovenAborts(); len(unwoven) != 0 {
		t.Fatalf("unwoven after MarkWoven = %+v, want none", unwoven)
	}
	// Only aborted versions can be marked.
	if err := m.MarkWoven(blob, 1); err == nil {
		t.Fatal("MarkWoven of a committed version succeeded")
	}
}

func TestExpiryDrainsCrashStormInOnePass(t *testing.T) {
	m := NewManager()
	defer m.Close()
	clk := newFakeClock()
	m.now = clk.now
	m.SetLeaseTTL(10 * time.Millisecond)
	blob, err := m.Create(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Assign(&AssignReq{BlobID: blob, Size: 50, Append: true}); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(20 * time.Millisecond)
	n, err := m.ExpireLeases(context.Background(), nil)
	if n != 3 || err != nil {
		t.Fatalf("ExpireLeases = %d, %v; want the whole storm (3)", n, err)
	}
	// All three were consecutive failures over an empty blob: each weaves
	// over zeros (SrcVersion 0).
	unwoven := m.UnwovenAborts()
	if len(unwoven) != 3 {
		t.Fatalf("unwoven = %+v, want 3", unwoven)
	}
	for _, in := range unwoven {
		if in.SrcVersion != 0 {
			t.Fatalf("unwoven %+v, want SrcVersion 0 (all predecessors failed)", in)
		}
	}
	// Frontier is clear for a live writer.
	v := assignCommit(t, m, blob, 50)
	if latest, err := m.Latest(blob); err != nil || latest.Version != v {
		t.Fatalf("latest = %+v, %v; want %d", latest, err, v)
	}
}

func TestExpiryAndWovenMarksSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	m.SetLeaseTTL(5 * time.Millisecond)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 100, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	if n, err := m.ExpireLeases(context.Background(), nil); n != 1 || err != nil {
		t.Fatalf("ExpireLeases = %d, %v", n, err)
	}
	re := openM(t, dir)
	if got := re.UnwovenAborts(); len(got) != 1 || got[0].Version != resp.Version {
		t.Fatalf("unwoven after restart = %+v, want version %d", got, resp.Version)
	}
	if err := re.MarkWoven(blob, resp.Version); err != nil {
		t.Fatal(err)
	}
	re2 := openM(t, dir)
	defer re2.Close()
	if got := re2.UnwovenAborts(); len(got) != 0 {
		t.Fatalf("unwoven after MarkWoven + restart = %+v, want none", got)
	}
}

// FuzzLeaseRecordReplay feeds arbitrary journal records to a mid-recovery
// manager holding one blob with one in-flight version. Replay must reject
// garbage as corruption, never panic or corrupt invariants: afterwards the
// blob answers Info, unless the record was a well-formed delete of it, in
// which case Info reports the deletion.
func FuzzLeaseRecordReplay(f *testing.F) {
	mk := func() (*Manager, uint64) {
		m := NewManager()
		m.SetLeaseTTL(time.Minute)
		blob, err := m.Create(1024, 1)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := m.Assign(&AssignReq{BlobID: blob, Size: 100, Append: true}); err != nil {
			f.Fatal(err)
		}
		return m, blob
	}
	m0, blob := mk()
	seed := func(r record) []byte { return r.encode() }
	f.Add(seed(record{kind: recLease, blob: blob, version: 1, n: 12345}))
	f.Add(seed(record{kind: recLease, blob: blob, version: 99, n: 12345}))
	f.Add(seed(record{kind: recWoven, blob: blob, version: 1}))
	f.Add(seed(record{kind: recAbort, blob: blob, version: 1, flag: true}))
	f.Add(seed(record{kind: recAbort, blob: blob, version: 1}))
	f.Add(seed(record{kind: recLease, blob: blob, version: 1, n: 12345})[:5])
	f.Add(seed(record{kind: recDelete, blob: blob}))
	m0.Close()

	f.Fuzz(func(t *testing.T, rec []byte) {
		m, blob := mk()
		defer m.Close()
		_ = m.replay(rec) // errors are fine; panics are not
		// Whatever replayed, the manager must still answer consistently.
		_, err := m.Info(blob)
		if r, derr := decodeRecord(rec); derr == nil && r.kind == recDelete && r.blob == blob {
			if !errors.Is(err, ErrBlobDeleted) {
				t.Fatalf("Info after replaying a delete: %v, want ErrBlobDeleted", err)
			}
		} else if err != nil {
			t.Fatalf("Info after replay: %v", err)
		}
		_ = m.UnwovenAborts()
		_ = m.MaintStats()
	})
}

// The lease plane belongs to the manager: a vm.maintreport delta that
// carries non-zero lease rows (or GC rows) moves only the engines' rows.
func TestMaintReportLeavesLeaseRowsAlone(t *testing.T) {
	m := NewManager()
	defer m.Close()
	m.SetLeaseTTL(time.Minute)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Assign(&AssignReq{BlobID: blob, Size: 500, Append: true}); err != nil {
		t.Fatal(err)
	}
	before := m.MaintStats()
	var delta Counters
	for id := range delta {
		delta[id] = 7
	}
	m.MaintReport(&delta)
	after := m.MaintStats()
	for id := range after {
		want := before[id]
		if !Counter(id).owned() {
			want += 7
		}
		if after[id] != want {
			t.Errorf("%s %s = %d after the report, want %d", CounterTable[id].Plane, CounterTable[id].Name, after[id], want)
		}
	}
	if after[LeaseTTLMs] != 60_000 || after[LeaseGranted] != 1 || after[LeaseActive] != 1 {
		t.Errorf("lease ttl-ms=%d granted=%d active=%d, want 60000, 1 and 1", after[LeaseTTLMs], after[LeaseGranted], after[LeaseActive])
	}
}
