package vmanager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// haGroup is an in-memory replication fabric: managers registered under
// addresses, with per-node reachability control. The transport closure
// it hands to EnableHA is the test double for an rpc client calling
// vm.replicate.
type haGroup struct {
	mu    sync.Mutex
	nodes map[string]*Manager
	down  map[string]bool
}

func newHAGroup() *haGroup {
	return &haGroup{nodes: map[string]*Manager{}, down: map[string]bool{}}
}

func (g *haGroup) transport(_ context.Context, addr string, req *ReplicateReq) (*ReplicateResp, error) {
	g.mu.Lock()
	m, down := g.nodes[addr], g.down[addr]
	g.mu.Unlock()
	if m == nil || down {
		return nil, errors.New("haGroup: " + addr + " unreachable")
	}
	return m.HandleReplicate(req)
}

func (g *haGroup) set(addr string, m *Manager) {
	g.mu.Lock()
	g.nodes[addr] = m
	g.mu.Unlock()
}

func (g *haGroup) setDown(addr string, down bool) {
	g.mu.Lock()
	g.down[addr] = down
	g.mu.Unlock()
}

// enable joins m to the group at the given address.
func (g *haGroup) enable(t testing.TB, m *Manager, self string, peers []string, ttl time.Duration, quorum, bootstrap bool) {
	t.Helper()
	g.set(self, m)
	err := m.EnableHA(HAConfig{
		Self:          self,
		Peers:         peers,
		LeadershipTTL: ttl,
		Quorum:        quorum,
		Bootstrap:     bootstrap,
		Transport:     g.transport,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitConverged(t testing.TB, a, b *Manager, timeout time.Duration) {
	t.Helper()
	waitFor(t, timeout, "state digests to converge", func() bool {
		return a.StateDigest() == b.StateDigest()
	})
}

func isLeader(m *Manager) bool  { return m.HAStatus().Role == "leader" }
func isStandby(m *Manager) bool { return m.HAStatus().Role == "standby" }

func TestReplicationConvergence(t *testing.T) {
	for _, quorum := range []bool{true, false} {
		t.Run(fmt.Sprintf("quorum=%v", quorum), func(t *testing.T) {
			g := newHAGroup()
			a := openM(t, t.TempDir())
			b := openM(t, t.TempDir())
			defer func() { a.Halt(); b.Halt(); a.Close(); b.Close() }()
			g.enable(t, a, "A", []string{"B"}, 100*time.Millisecond, quorum, true)
			g.enable(t, b, "B", []string{"A"}, 100*time.Millisecond, quorum, false)

			if !isLeader(a) || !isStandby(b) {
				t.Fatalf("roles = %s/%s, want leader/standby", a.HAStatus().Role, b.HAStatus().Role)
			}

			blob, err := a.Create(1024, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				assignCommit(t, a, blob, 2048)
			}
			if err := a.SetRetention(blob, 4); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, a, b, 3*time.Second)

			// The standby's warm state answers reads identically.
			la, _ := a.Latest(blob)
			lb, err := b.Latest(blob)
			if err != nil || la.Version != lb.Version || la.SizeBytes != lb.SizeBytes {
				t.Fatalf("standby Latest = %+v (err %v), leader %+v", lb, err, la)
			}

			// But its write gate redirects to the leader.
			gateErr := b.leaderGate()
			var nl *NotLeaderError
			if !errors.As(gateErr, &nl) || nl.Leader != "A" {
				t.Fatalf("standby leaderGate = %v, want NotLeaderError{Leader: A}", gateErr)
			}
			if err := a.leaderGate(); err != nil {
				t.Fatalf("leader leaderGate = %v, want nil", err)
			}

			// The standby can hold the catch-up snapshot (digests equal)
			// before its delivery call returns and the leader flips Synced,
			// so wait for the flag, not the digest.
			waitFor(t, 3*time.Second, "leader to report one synced standby", func() bool {
				st := a.HAStatus()
				return len(st.Standbys) == 1 && st.Standbys[0].Synced
			})
		})
	}
}

// TestQuorumCommitIsSynchronous: with a synced standby in quorum mode a
// commit does not return until the standby applied it, so the digests
// match immediately after — no polling, no window for a lost version.
func TestQuorumCommitIsSynchronous(t *testing.T) {
	g := newHAGroup()
	a := openM(t, t.TempDir())
	b := openM(t, t.TempDir())
	defer func() { a.Halt(); b.Halt(); a.Close(); b.Close() }()
	g.enable(t, a, "A", []string{"B"}, 200*time.Millisecond, true, true)
	g.enable(t, b, "B", []string{"A"}, 200*time.Millisecond, true, false)

	waitFor(t, 3*time.Second, "standby to sync", func() bool {
		st := a.HAStatus()
		return len(st.Standbys) == 1 && st.Standbys[0].Synced && st.Standbys[0].AckSeq == st.StreamSeq
	})

	blob, err := a.Create(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		assignCommit(t, a, blob, 999)
		if da, db := a.StateDigest(), b.StateDigest(); da != db {
			t.Fatalf("write %d: digests diverge right after a quorum commit", i)
		}
	}
}

// TestStandbySyncedOnlyAfterSnapshotDelivered holds the leader's catch-up
// snapshot in the transport: until its delivery returns the standby does
// not hold the state, so the leader's HAStatus must not call it synced.
func TestStandbySyncedOnlyAfterSnapshotDelivered(t *testing.T) {
	g := newHAGroup()
	a := openM(t, t.TempDir())
	b := openM(t, t.TempDir())
	defer func() { a.Halt(); b.Halt(); a.Close(); b.Close() }()
	held, release := make(chan struct{}), make(chan struct{})
	var heldOnce, releaseOnce sync.Once
	// Runs before the Halt above: a send loop parked in the transport
	// would otherwise never let the leader shut down.
	defer releaseOnce.Do(func() { close(release) })
	blocking := func(ctx context.Context, addr string, req *ReplicateReq) (*ReplicateResp, error) {
		if req.Snapshot != nil {
			heldOnce.Do(func() { close(held) })
			<-release
		}
		return g.transport(ctx, addr, req)
	}

	// A long TTL: the held snapshot also holds the leader's heartbeats to
	// B (one queue per peer), and B must not take over meanwhile.
	const ttl = 5 * time.Second
	g.set("A", a)
	if err := a.EnableHA(HAConfig{Self: "A", Peers: []string{"B"}, LeadershipTTL: ttl, Bootstrap: true, Transport: blocking}); err != nil {
		t.Fatal(err)
	}
	g.enable(t, b, "B", []string{"A"}, ttl, false, false)

	select {
	case <-held:
	case <-time.After(3 * time.Second):
		t.Fatal("leader never sent a catch-up snapshot")
	}
	for i := 0; i < 10; i++ {
		if st := a.HAStatus(); len(st.Standbys) != 1 || st.Standbys[0].Synced {
			t.Fatalf("standby view while its snapshot is undelivered = %+v, want one unsynced standby", st.Standbys)
		}
		time.Sleep(5 * time.Millisecond)
	}

	releaseOnce.Do(func() { close(release) })
	waitFor(t, 3*time.Second, "standby to sync after snapshot delivery", func() bool {
		st := a.HAStatus()
		return len(st.Standbys) == 1 && st.Standbys[0].Synced && st.Standbys[0].AckSeq == st.StreamSeq
	})
}

// TestFailoverPromotesStandby kills the leader and asserts the standby
// assumes leadership under a higher epoch and serves writes, and that the
// caller-visible history includes every version committed before the kill.
func TestFailoverPromotesStandby(t *testing.T) {
	g := newHAGroup()
	a := openM(t, t.TempDir())
	b := openM(t, t.TempDir())
	defer func() { a.Halt(); b.Halt(); a.Close(); b.Close() }()
	ttl := 100 * time.Millisecond
	g.enable(t, a, "A", []string{"B"}, ttl, true, true)
	g.enable(t, b, "B", []string{"A"}, ttl, true, false)

	blob, err := a.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lastCommitted uint64
	for i := 0; i < 5; i++ {
		lastCommitted = assignCommit(t, a, blob, 4096)
	}
	waitConverged(t, a, b, 3*time.Second)
	epochBefore := a.HAStatus().Epoch

	// Kill the leader: unreachable and frozen.
	g.setDown("A", true)
	a.Halt()

	waitFor(t, 10*ttl, "standby takeover", func() bool { return isLeader(b) })
	if e := b.HAStatus().Epoch; e <= epochBefore {
		t.Fatalf("new leader epoch = %d, want > %d", e, epochBefore)
	}
	lb, err := b.Latest(blob)
	if err != nil || lb.Version != lastCommitted {
		t.Fatalf("post-failover Latest = %+v (err %v), want version %d", lb, err, lastCommitted)
	}
	// The new leader serves writes on its own (degraded quorum: no
	// standby left, the gate must not wedge).
	if v := assignCommit(t, b, blob, 128); v != lastCommitted+1 {
		t.Fatalf("post-failover commit got version %d, want %d", v, lastCommitted+1)
	}
}

// TestDivergentTailTruncatedOnRejoin is the journal-divergence scenario:
// a partitioned leader keeps committing a tail nobody replicated, the
// standby takes over, and on heal the ex-leader is fenced, resynced, and
// its divergent journal tail is truncated to the authority's history —
// durably, as a restart from its own directory proves.
func TestDivergentTailTruncatedOnRejoin(t *testing.T) {
	g := newHAGroup()
	dirA := t.TempDir()
	a := openM(t, dirA)
	b := openM(t, t.TempDir())
	closed := false
	defer func() {
		if !closed {
			a.Halt()
			a.Close()
		}
		b.Halt()
		b.Close()
	}()
	ttl := 100 * time.Millisecond
	g.enable(t, a, "A", []string{"B"}, ttl, true, true)
	g.enable(t, b, "B", []string{"A"}, ttl, true, false)

	blob, err := a.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared := assignCommit(t, a, blob, 1000)
	waitConverged(t, a, b, 3*time.Second)

	// Full partition: A keeps leading into the void, B cannot hear it.
	g.setDown("A", true)
	g.setDown("B", true)
	divergent := assignCommit(t, a, blob, 2000) // A-only tail
	if divergent != shared+1 {
		t.Fatalf("divergent version = %d, want %d", divergent, shared+1)
	}

	waitFor(t, 10*ttl, "partitioned standby takeover", func() bool { return isLeader(b) })
	bV1 := assignCommit(t, b, blob, 3000)
	bV2 := assignCommit(t, b, blob, 4000)
	if bV1 != shared+1 || bV2 != shared+2 {
		t.Fatalf("new leader versions = %d,%d, want %d,%d", bV1, bV2, shared+1, shared+2)
	}

	// Heal. B fences A and resyncs it; A's tail loses.
	g.setDown("A", false)
	g.setDown("B", false)
	waitFor(t, 10*ttl, "ex-leader fenced to standby", func() bool { return isStandby(a) && isLeader(b) })
	waitConverged(t, a, b, 3*time.Second)

	la, err := a.Latest(blob)
	if err != nil || la.Version != bV2 || la.SizeBytes == 0 {
		t.Fatalf("rejoined ex-leader Latest = %+v (err %v), want version %d", la, err, bV2)
	}
	// Version shared+1 must be the new leader's (blob size 1000+3000), not
	// the divergent tail A committed alone (blob size 1000+2000).
	vi, err := a.VersionInfo(blob, shared+1)
	if err != nil {
		t.Fatal(err)
	}
	if vi.SizeBytes != 4000 {
		t.Fatalf("version %d on rejoined ex-leader has blob size %d, want the new leader's 4000 (divergent tail survived)", shared+1, vi.SizeBytes)
	}
	if a.HAStatus().Fences == 0 {
		t.Error("ex-leader fence counter = 0, want > 0")
	}

	// The truncation must be durable: reopen A's journal from disk and
	// replay to the same converged state.
	want := b.StateDigest()
	a.Halt()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	a2, err := OpenManager(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if got := a2.StateDigest(); got != want {
		t.Fatalf("reopened ex-leader digest %s != authority digest %s", got, want)
	}
}

// TestRebootedExLeaderRejoinsAsStandby: Bootstrap is inert once the
// journal knows an epoch — a crashed ex-leader restarted with the same
// flags must come back as a standby and follow the new leader, never
// re-seize power.
func TestRebootedExLeaderRejoinsAsStandby(t *testing.T) {
	g := newHAGroup()
	dirA := t.TempDir()
	a := openM(t, dirA)
	b := openM(t, t.TempDir())
	ttl := 100 * time.Millisecond
	g.enable(t, a, "A", []string{"B"}, ttl, true, true)
	g.enable(t, b, "B", []string{"A"}, ttl, true, false)
	defer func() { b.Halt(); b.Close() }()

	blob, err := a.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, a, blob, 1000)
	waitConverged(t, a, b, 3*time.Second)

	g.setDown("A", true)
	a.Halt()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*ttl, "takeover", func() bool { return isLeader(b) })
	assignCommit(t, b, blob, 2000)

	// Crash-restart A with its original (bootstrap-capable) config.
	a2, err := OpenManager(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a2.Halt(); a2.Close() }()
	g.setDown("A", false)
	g.enable(t, a2, "A", []string{"B"}, ttl, true, true)
	if isLeader(a2) {
		t.Fatal("rebooted ex-leader bootstrapped itself back into leadership")
	}
	waitConverged(t, a2, b, 3*time.Second)
	if !isStandby(a2) || !isLeader(b) {
		t.Fatalf("roles after rejoin = %s/%s, want standby/leader", a2.HAStatus().Role, b.HAStatus().Role)
	}
	var nl *NotLeaderError
	if err := a2.leaderGate(); !errors.As(err, &nl) || nl.Leader != "B" {
		t.Fatalf("rejoined gate = %v, want redirect to B", err)
	}
}

// TestTakeoverPrefersMostUpToDateStandby is the multi-standby takeover
// race: in quorum mode one standby ack gates each commit, so with two
// standbys the one that kept acking holds the acknowledged tail while the
// other may be arbitrarily behind. Address-ranked stagger alone would let
// the behind standby (lower rank) self-promote and durably discard the
// acknowledged commits via the divergent-tail cut — the recency probe
// must flip the race to the up-to-date standby.
func TestTakeoverPrefersMostUpToDateStandby(t *testing.T) {
	g := newHAGroup()
	a := openM(t, t.TempDir())
	b := openM(t, t.TempDir())
	c := openM(t, t.TempDir())
	defer func() {
		a.Halt()
		b.Halt()
		c.Halt()
		a.Close()
		b.Close()
		c.Close()
	}()
	ttl := 150 * time.Millisecond
	g.enable(t, a, "A", []string{"B", "C"}, ttl, true, true)
	g.enable(t, b, "B", []string{"A", "C"}, ttl, true, false)
	g.enable(t, c, "C", []string{"A", "B"}, ttl, true, false)

	blob, err := a.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, a, blob, 1000)
	waitFor(t, 5*time.Second, "both standbys synced", func() bool {
		st := a.HAStatus()
		if len(st.Standbys) != 2 {
			return false
		}
		for _, sb := range st.Standbys {
			if !sb.Synced || sb.AckSeq != st.StreamSeq {
				return false
			}
		}
		return true
	})

	// Partition B inbound: it hears nothing (the leader demotes it) but
	// can still reach out; C keeps acking every quorum commit.
	g.setDown("B", true)
	var last uint64
	for i := 0; i < 5; i++ {
		last = assignCommit(t, a, blob, uint64(2000+i))
	}

	// B's lease lapses during the partition, but its recency probe finds
	// the leader alive — it must keep following, not fork an epoch that
	// would fence A (the silent inbound-partition takeover).
	time.Sleep(3 * ttl)
	if isLeader(b) {
		t.Fatal("inbound-partitioned standby seized leadership from a live leader")
	}

	// Kill the leader and heal B in the same instant. B has the lower
	// address rank, so stagger alone would promote it first; the recency
	// probe (same session, C's cursor strictly ahead) must defer B and
	// let C — which holds every acknowledged commit — win.
	g.setDown("A", true)
	a.Halt()
	g.setDown("B", false)

	waitFor(t, 15*time.Second, "up-to-date standby C takeover", func() bool { return isLeader(c) })
	lc, err := c.Latest(blob)
	if err != nil || lc.Version != last {
		t.Fatalf("new leader Latest = %+v (err %v), want version %d — acknowledged commits lost to a stale takeover", lc, err, last)
	}

	// The behind standby resyncs from the new leader and converges onto
	// the full history instead of imposing its truncated one.
	waitConverged(t, b, c, 10*time.Second)
	if !isStandby(b) {
		t.Errorf("behind standby role = %s, want standby", b.HAStatus().Role)
	}
	lb, err := b.Latest(blob)
	if err != nil || lb.Version != last {
		t.Fatalf("resynced standby Latest = %+v (err %v), want version %d", lb, err, last)
	}
}

// TestQuorumDegradeIsCounted: a quorum leader that loses its only standby
// keeps committing (availability), but every such solo commit must be
// visible on the NoQuorumCommits counter — the degrade is deliberate,
// never silent.
func TestQuorumDegradeIsCounted(t *testing.T) {
	g := newHAGroup()
	a := openM(t, t.TempDir())
	b := openM(t, t.TempDir())
	defer func() {
		a.Halt()
		b.Halt()
		a.Close()
		b.Close()
	}()
	ttl := 150 * time.Millisecond
	g.enable(t, a, "A", []string{"B"}, ttl, true, true)
	g.enable(t, b, "B", []string{"A"}, ttl, true, false)

	blob, err := a.Create(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "standby synced", func() bool {
		st := a.HAStatus()
		return len(st.Standbys) == 1 && st.Standbys[0].Synced && st.Standbys[0].AckSeq == st.StreamSeq
	})

	base := a.HAStatus().NoQuorumCommits
	assignCommit(t, a, blob, 100)
	if got := a.HAStatus().NoQuorumCommits; got != base {
		t.Errorf("healthy quorum commit counted as no-quorum (%d -> %d)", base, got)
	}

	g.setDown("B", true)
	b.Halt()
	assignCommit(t, a, blob, 200)
	if got := a.HAStatus().NoQuorumCommits; got <= base {
		t.Errorf("solo commit with a dead standby not counted: NoQuorumCommits = %d, want > %d", got, base)
	}
}

// TestWaitPublishedWaiterUnparkedByStepDownRace models an RPC whose
// dispatch-time leader gate passed just before a step-down: the waiter is
// registered AFTER stepDown's drain, so nothing local will ever wake it.
// The post-registration gate re-check must convert the stall into a typed
// redirect and leave no waiter behind.
func TestWaitPublishedWaiterUnparkedByStepDownRace(t *testing.T) {
	g := newHAGroup()
	a := openM(t, t.TempDir())
	b := openM(t, t.TempDir())
	defer func() {
		a.Halt()
		b.Halt()
		a.Close()
		b.Close()
	}()
	// TTL far beyond the test so no real failover machinery interferes.
	ttl := 30 * time.Second
	g.enable(t, a, "A", []string{"B"}, ttl, true, true)
	g.enable(t, b, "B", []string{"A"}, ttl, true, false)

	blob, err := a.Create(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, a, blob, 100)

	// Depose A as a higher epoch would; its waiter drain runs now. A
	// direct WaitPublished call after this models the RPC that already
	// cleared the dispatch gate before the step-down.
	a.ha.mu.Lock()
	a.stepDownLocked(a.epochView().epoch+1, "B")
	a.ha.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- a.WaitPublished(blob, 99) }()
	select {
	case err := <-done:
		var nl *NotLeaderError
		if !errors.As(err, &nl) {
			t.Fatalf("WaitPublished on deposed leader = %v, want NotLeaderError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitPublished parked forever: waiter registered after the step-down drain was never woken")
	}
	bs, err := a.blob(blob)
	if err != nil {
		t.Fatal(err)
	}
	bs.mu.Lock()
	leaked := len(bs.waiters)
	bs.mu.Unlock()
	if leaked != 0 {
		t.Errorf("deposed leader leaked %d waiter entries", leaked)
	}
}

// TestAssignNegotiatesPerVersionLeaseTTL covers the Assign-time TTL
// negotiation: grants floor at the configured default, honor larger asks,
// clamp at 8x, and survive journal replay per-version.
func TestAssignNegotiatesPerVersionLeaseTTL(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	m.SetLeaseTTL(100 * time.Millisecond)
	blob, err := m.Create(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		want, grant uint64
	}{
		{0, 100},     // no ask: the default
		{40, 100},    // lowball: floored at the default
		{300, 300},   // bulk writer: honored
		{10000, 800}, // runaway: clamped at 8x default
	}
	for i, tc := range cases {
		resp, err := m.Assign(&AssignReq{BlobID: blob, Size: 512, Append: true, WantLeaseTTLMs: tc.want})
		if err != nil {
			t.Fatal(err)
		}
		if resp.LeaseTTLMs != tc.grant {
			t.Errorf("case %d: want=%d granted %d, expected %d", i, tc.want, resp.LeaseTTLMs, tc.grant)
		}
	}
	// The negotiated TTL is journaled with the assign: replay restores it
	// so renewals after a failover extend by the version's own TTL.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openM(t, dir)
	defer m2.Close()
	b, err := m2.blob(blob)
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	got := make([]uint64, 0, 4)
	for v := uint64(1); v <= 4; v++ {
		vi, err := b.version(v)
		if err != nil {
			b.mu.Unlock()
			t.Fatal(err)
		}
		got = append(got, vi.leaseTTLMs)
	}
	b.mu.Unlock()
	for i, tc := range cases {
		if got[i] != tc.grant {
			t.Errorf("after replay, version %d TTL = %d, want %d", i+1, got[i], tc.grant)
		}
	}
}

// FuzzReplicationDivergence drives a random mutation history across a
// partition + forced takeover and asserts the group always converges to
// one history: equal digests after heal, and equal digests again after
// both nodes restart from their own journals (the divergent-tail cut is
// durable).
func FuzzReplicationDivergence(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 5, 1, 2, 0, 1, 3, 4, 2, 1, 5, 0})
	f.Add([]byte{2, 3, 2, 3, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		g := newHAGroup()
		dirA, dirB := t.TempDir(), t.TempDir()
		a := openM(t, dirA)
		b := openM(t, dirB)
		ttl := 200 * time.Millisecond
		g.enable(t, a, "A", []string{"B"}, ttl, true, true)
		g.enable(t, b, "B", []string{"A"}, ttl, true, false)

		var blobs []uint64
		apply := func(m *Manager, op byte, i int) {
			size := uint64(100 + int(op)*13 + i)
			switch op % 6 {
			case 0:
				if id, err := m.Create(512, 1); err == nil {
					blobs = append(blobs, id)
				}
			case 1, 2:
				if len(blobs) == 0 {
					return
				}
				id := blobs[i%len(blobs)]
				resp, err := m.Assign(&AssignReq{BlobID: id, Size: size, Append: true})
				if err != nil {
					return
				}
				if op%6 == 1 {
					_ = m.Commit(id, resp.Version)
				} else {
					_ = m.Abort(id, resp.Version)
				}
			case 3:
				if len(blobs) == 0 {
					return
				}
				// Left in flight on purpose: recovery's abort must be
				// deterministic across both journals.
				_, _ = m.Assign(&AssignReq{BlobID: blobs[i%len(blobs)], Size: size, Append: true})
			case 4:
				if len(blobs) == 0 {
					return
				}
				_ = m.SetRetention(blobs[i%len(blobs)], uint64(op%4))
			case 5:
				if len(blobs) == 0 {
					return
				}
				_ = m.Delete(blobs[i%len(blobs)])
			}
		}

		third := len(ops) / 3
		for i, op := range ops[:third] {
			apply(a, op, i)
		}

		// The takeover below must carry a HIGHER epoch than A's, which
		// requires B to have heard A's claim first (a heartbeat or any
		// replicated record carries it). Otherwise the takeover lands on
		// an equal epoch and the address tie-break — legitimate, but a
		// different scenario than the divergence this fuzz targets.
		waitFor(t, 5*time.Second, "standby sync before partition", func() bool {
			st := a.HAStatus()
			return len(st.Standbys) == 1 && st.Standbys[0].Synced &&
				st.Standbys[0].AckSeq == st.StreamSeq && b.HAStatus().Epoch == st.Epoch
		})

		// Partition both directions; A's unreplicated tail diverges.
		g.setDown("A", true)
		g.setDown("B", true)
		for i, op := range ops[third : 2*third] {
			apply(a, op, i)
		}

		// Forced takeover on the isolated standby (deterministic stand-in
		// for the lease lapsing).
		b.ha.mu.Lock()
		err := b.becomeLeaderLocked(b.epochView().epoch + 1)
		b.ha.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops[2*third:] {
			apply(b, op, i)
		}

		// Heal: B must fence A and resync it over A's divergent tail.
		g.setDown("A", false)
		g.setDown("B", false)
		waitFor(t, 10*time.Second, "post-heal convergence", func() bool {
			return isStandby(a) && isLeader(b) && a.StateDigest() == b.StateDigest()
		})

		// Restart both from their own directories: replay must land on
		// the same state on both sides, byte for byte.
		a.Halt()
		b.Halt()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		a2, err := OpenManager(dirA, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer a2.Close()
		b2, err := OpenManager(dirB, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer b2.Close()
		if da, db := a2.StateDigest(), b2.StateDigest(); da != db {
			t.Fatalf("replayed digests diverge: A %s, B %s", da, db)
		}
	})
}
