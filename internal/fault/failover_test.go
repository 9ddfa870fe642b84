package fault_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// waitUntil polls cond until it holds or the timeout lapses.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The ISSUE acceptance scenario for the replicated control plane: a
// leader + one quorum standby, the leader kill -9'd in the middle of a
// write storm. No committed version may be lost (quorum replication means
// every acknowledged commit already lives on the standby), writes must
// resume within 2x the leadership TTL, and the rejoining ex-leader must
// come back fenced — serving typed not-leader redirects — and resync to
// byte-identical state.
func TestFailoverMidWriteStorm(t *testing.T) {
	const ttl = 1500 * time.Millisecond
	c, err := cluster.Start(cluster.Config{
		DataProviders:   3,
		MetaProviders:   2,
		MetaReplication: 2,
		DataDir:         t.TempDir(),
		// Same trade as TestCrashRecoveryMidWriteStorm: this test crashes
		// PROCESSES, so unfsync'd appends survive every crash staged here
		// and fsync only slows the storm under the race detector.
		NoFsyncWAL:      true,
		VMStandbys:      1,
		VMLeadershipTTL: ttl,
		CallTimeout:     10 * time.Second,
		// Generous provider liveness: under -race on a loaded machine,
		// starved heartbeats must not age providers out mid-failover and
		// compound the control-plane outage with an allocate-fail loop.
		HeartbeatTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		writers     = 2
		writesEach  = 18
		payloadSize = 600
		chunkSize   = 256
	)
	blobs := make([]*core.Blob, writers)
	for i := range blobs {
		cli, err := c.NewClient(cluster.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := cli.CreateBlob(chunkSize, 2)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
	}
	// Dedicated probe stack for the resume-latency measurement: its own
	// client and blob, so storm queueing does not pollute the clock.
	probeCli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probeBlob, err := probeCli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}

	lead := c.LeaderIndex()
	if lead < 0 {
		t.Fatal("no leader elected after start")
	}

	// Write storm: every write retried through the failover, explicit
	// offsets so retried duplicates stay byte-identical prefixes.
	expected := make([][]byte, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var off uint64
			for s := 0; s < writesEach; s++ {
				data := stormPayload(w, s, payloadSize)
				writeWithRetry(t, blobs[w], data, off)
				expected[w] = append(expected[w], data...)
				off += uint64(len(data))
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	// Let the storm land some commits on the live leader, then kill -9 it:
	// RPC server dark instantly, nothing flushed, in-process HA halted.
	time.Sleep(150 * time.Millisecond)
	killedAt := time.Now()
	c.KillVM(lead)

	// Failover clock: first successful write after the kill. The standby
	// must fence the old epoch and serve Assign/Publish within 2x the
	// leadership TTL (takeover fires at TTL + rank stagger + jitter; the
	// client re-resolves leadership through vm.whoisleader probing).
	var probePayload = stormPayload(99, 0, payloadSize)
	var resumed time.Duration
	for {
		if _, err := probeBlob.Write(probePayload, 0); err == nil {
			resumed = time.Since(killedAt)
			break
		}
		if time.Since(killedAt) > 30*time.Second {
			t.Fatal("writes never resumed after leader kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resumed > 2*ttl {
		t.Errorf("writes resumed %v after leader kill, want <= %v", resumed, 2*ttl)
	}
	t.Logf("writes resumed %v after leader kill (budget %v)", resumed, 2*ttl)

	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Leadership moved to the standby, at a strictly higher epoch.
	newLead := c.LeaderIndex()
	if newLead < 0 || newLead == lead {
		t.Fatalf("leader after failover = instance %d, want a different live instance", newLead)
	}
	st := c.VMs[newLead].Manager().HAStatus()
	if st.Epoch < 2 {
		t.Errorf("post-failover epoch = %d, want >= 2 (old epoch fenced)", st.Epoch)
	}
	if st.Takeovers == 0 {
		t.Error("new leader reports zero takeovers")
	}

	// Zero committed versions lost: every write the storm acknowledged
	// reads back byte-identical through the new leader. (Retried ambiguous
	// commits may leave identical duplicates, so >= not ==.)
	for w := range blobs {
		if got := verifyVersions(t, c, blobs[w], expected[w]); got < writesEach {
			t.Errorf("blob %d: %d versions verified after failover, want >= %d (committed versions lost)",
				blobs[w].ID(), got, writesEach)
		}
	}

	// The ex-leader reboots. Its journal knows the old epoch, so it rejoins
	// as a standby, is fenced by the new epoch, and resyncs — divergent
	// journal tail truncated — until both managers hash to the same state.
	if err := c.RestartVM(lead); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "ex-leader fenced to standby", func() bool {
		st := c.VMs[lead].Manager().HAStatus()
		return st.Role == "standby" && st.Leader == c.VMAddrs()[newLead]
	})
	waitUntil(t, 30*time.Second, "ex-leader resynced (digest convergence)", func() bool {
		return c.VMs[lead].Manager().StateDigest() == c.VMs[newLead].Manager().StateDigest()
	})
	waitUntil(t, 30*time.Second, "new leader sees a synced standby", func() bool {
		st := c.VMs[newLead].Manager().HAStatus()
		return len(st.Standbys) == 1 && st.Standbys[0].Synced && st.Standbys[0].AckSeq == st.StreamSeq
	})

	// A stale client that never heard about the failover and still talks
	// straight to the old leader gets a typed redirect naming the new one —
	// not a hang, not a wrong answer.
	dcli := rpc.NewClient(c.Network, 5*time.Second)
	defer dcli.Close()
	var resp vmanager.CreateResp
	err = dcli.Call(c.VMAddrs()[lead], vmanager.MethodCreate,
		&vmanager.CreateReq{ChunkSize: chunkSize, Replication: 1}, &resp)
	var rd *rpc.Redirect
	if !errors.As(err, &rd) {
		t.Fatalf("direct RPC to fenced ex-leader: err = %v, want rpc.Redirect", err)
	}
	if rd.Target != c.VMAddrs()[newLead] {
		t.Errorf("redirect target = %q, want new leader %q", rd.Target, c.VMAddrs()[newLead])
	}

	// And the deployment keeps taking writes with the rejoined standby
	// replicating them.
	for w := range blobs {
		extra := stormPayload(98, w, payloadSize)
		writeWithRetry(t, blobs[w], extra, uint64(len(expected[w])))
		expected[w] = append(expected[w], extra...)
		buf := make([]byte, len(expected[w]))
		if _, err := blobs[w].Read(0, buf, 0); err != nil {
			t.Fatalf("post-rejoin read of blob %d: %v", blobs[w].ID(), err)
		}
		if !bytes.Equal(buf, expected[w]) {
			t.Fatalf("post-rejoin write of blob %d corrupted", blobs[w].ID())
		}
	}
	waitUntil(t, 30*time.Second, "post-rejoin writes replicated", func() bool {
		return c.VMs[lead].Manager().StateDigest() == c.VMs[newLead].Manager().StateDigest()
	})
}

// A kill -9 of a quorum STANDBY must degrade gracefully: the leader keeps
// committing (a quorum of zero synced standbys passes), and the restarted
// standby catches back up to a byte-identical digest.
func TestStandbyCrashDoesNotBlockCommits(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders:    2,
		MetaProviders:    1,
		DataDir:          t.TempDir(),
		NoFsyncWAL:       true,
		VMStandbys:       1,
		VMLeadershipTTL:  time.Second,
		CallTimeout:      10 * time.Second,
		HeartbeatTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cli.CreateBlob(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := stormPayload(1, 1, 600)
	writeWithRetry(t, b, payload, 0)

	lead := c.LeaderIndex()
	if lead < 0 {
		t.Fatal("no leader elected")
	}
	standby := 1 - lead
	c.KillVM(standby)

	// Commits keep flowing while the group is degraded. The first write
	// may pay one quorum timeout (the leader demotes the dead standby),
	// so it goes through the retry helper; the rest must succeed directly.
	writeWithRetry(t, b, payload, uint64(len(payload)))
	for i := 2; i < 5; i++ {
		if _, err := b.Write(payload, uint64(i)*uint64(len(payload))); err != nil {
			t.Fatalf("write %d with dead standby: %v", i, err)
		}
	}

	if err := c.RestartVM(standby); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "restarted standby resynced", func() bool {
		return c.VMs[standby].Manager().StateDigest() == c.VMs[lead].Manager().StateDigest()
	})
	if role := c.VMs[standby].Manager().HAStatus().Role; role != "standby" {
		t.Errorf("restarted instance role = %q, want standby", role)
	}
}
