package fault_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/vmanager"
)

// stormPayload is the deterministic content of one write: a retry after an
// ambiguous failure re-sends identical bytes, so a commit that landed but
// whose acknowledgment was lost leaves a duplicate version with identical
// content rather than corruption.
func stormPayload(blob, step int, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(blob*31 + step*7 + i)
	}
	return out
}

// writeWithRetry pushes one write through daemon crashes: any error is
// retried until the deadline. Writes use explicit offsets (not appends),
// so a retry that follows an aborted attempt overwrites the exact same
// range — the hole an aborted version might leave is patched by its own
// retry, and every non-failed version's content is a strict prefix of the
// writer's stream.
func writeWithRetry(t *testing.T, blob *core.Blob, data []byte, off uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	backoff := 5 * time.Millisecond
	for {
		_, err := blob.Write(data, off)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("write at %d never succeeded: %v", off, err)
			return
		}
		if os.Getenv("STORM_DEBUG") != "" {
			fmt.Fprintf(os.Stderr, "[%s] blob %d write@%d failed: %v\n", time.Now().Format("15:04:05.000"), blob.ID(), off, err)
		}
		// Exponential backoff: a fixed hot retry cadence across several
		// writers can flood the control plane faster than it recovers
		// from the staged crashes (a miniature metastable retry storm).
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// retryTransient runs op, retrying briefly: immediately after a crash the
// client may hold a connection whose death it has not yet observed, so the
// first call can fail with a transport error before the redial heals it.
func retryTransient(t *testing.T, what string, op func() error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := op()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verifyVersions reads every addressable version of the blob and checks it
// back byte-identical against the writer's stream: version content must be
// expected[:size]. Failed (aborted) versions are skipped; versions below
// the retention floor must fail with the typed reclaimed error. Returns
// how many versions were verified byte-identical.
func verifyVersions(t *testing.T, c *cluster.Cluster, blob *core.Blob, expected []byte) int {
	t.Helper()
	// Resolve through the current leader: on an HA group, instance 0 may be
	// a dead or stale ex-leader (without HA this is just instance 0).
	mgr := c.LeaderManager()
	var latest uint64
	retryTransient(t, "latest", func() error {
		var err error
		latest, _, err = blob.Latest()
		return err
	})
	verified := 0
	for v := uint64(1); v <= latest; v++ {
		vi, err := mgr.VersionInfo(blob.ID(), v)
		if err != nil {
			t.Fatalf("version info %d/%d: %v", blob.ID(), v, err)
		}
		if vi.Reclaimed {
			if _, err := blob.Read(v, make([]byte, 1), 0); !errors.Is(err, core.ErrVersionReclaimed) {
				t.Errorf("blob %d v%d below floor: read err = %v, want ErrVersionReclaimed", blob.ID(), v, err)
			}
			continue
		}
		if vi.Failed {
			continue // aborted write; readers skip it by contract
		}
		if vi.SizeBytes > uint64(len(expected)) {
			t.Fatalf("blob %d v%d claims %d bytes, writer only produced %d", blob.ID(), v, vi.SizeBytes, len(expected))
		}
		buf := make([]byte, vi.SizeBytes)
		if _, err := blob.Read(v, buf, 0); err != nil {
			t.Errorf("blob %d v%d unreadable: %v", blob.ID(), v, err)
			continue
		}
		if !bytes.Equal(buf, expected[:vi.SizeBytes]) {
			t.Errorf("blob %d v%d content diverged from writer stream", blob.ID(), v)
			continue
		}
		verified++
	}
	return verified
}

// The ISSUE acceptance scenario: a write storm during which the version
// manager and a metadata provider are each kill -9'd and restarted, then a
// quiesced crash of the whole durable control plane. No published version
// may be lost: every retained version reads back byte-identical, retention
// floors and GC statistics survive replay, and garbage collection still
// converges afterwards.
func TestCrashRecoveryMidWriteStorm(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders:   3,
		MetaProviders:   2,
		MetaReplication: 2, // masks the single-meta outage mid-storm
		DataDir:         t.TempDir(),
		// This test kill -9s PROCESSES: unfsync'd appends reach the OS
		// before acknowledgment and therefore survive every crash staged
		// here, so fsync (the durable-harness default) only slows the
		// storm — badly enough under the race detector on a loaded CI
		// machine to flirt with the package timeout. Machine-crash
		// durability and group commit are covered by internal/durable's
		// tests.
		NoFsyncWAL:  true,
		CallTimeout: 10 * time.Second,
		// Generous liveness detection: under the race detector on a
		// loaded machine, host-side CPU starvation can delay heartbeats
		// past a short timeout, age every provider out of the manager,
		// and tip the retrying write storm into a self-sustaining
		// allocate-fail loop.
		HeartbeatTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		writers     = 3
		writesEach  = 25
		payloadSize = 600 // spans chunks of 256 unevenly: exercises merges
		chunkSize   = 256
	)
	blobs := make([]*core.Blob, writers)
	clients := make([]*core.Client, writers)
	for i := range blobs {
		cli, err := c.NewClient(cluster.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cli
		b, err := cli.CreateBlob(chunkSize, 2)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
	}

	// Mid-storm control-plane crashes: the version manager dies and
	// revives, then a metadata provider does. Both are kill -9 (nothing
	// flushed); revival replays the journals.
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		start := time.Now()
		at := func(d time.Duration) { time.Sleep(time.Until(start.Add(d))) }
		at(20 * time.Millisecond)
		c.KillVM(0)
		at(90 * time.Millisecond)
		if err := c.RestartVM(0); err != nil {
			t.Errorf("mid-storm version manager restart: %v", err)
		}
		at(160 * time.Millisecond)
		c.KillMeta(0)
		at(230 * time.Millisecond)
		if err := c.RestartMeta(0); err != nil {
			t.Errorf("mid-storm metadata restart: %v", err)
		}
	}()

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
				time.Sleep(2 * time.Millisecond) // stretch the storm across the crash windows
			}
		}(w)
	}
	wg.Wait()
	<-crashed
	if t.Failed() {
		t.FailNow()
	}

	// Sanity before the final crash: everything written is readable.
	for w := range blobs {
		if got := verifyVersions(t, c, blobs[w], expected[w]); got == 0 {
			t.Fatalf("blob %d: no versions verified pre-crash", blobs[w].ID())
		}
	}

	// Install retention state that must survive replay.
	if err := blobs[0].SetRetention(5); err != nil {
		t.Fatal(err)
	}
	lat1, _, err := blobs[1].Latest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blobs[1].Prune(lat1 - 3); err != nil {
		t.Fatal(err)
	}
	preInfo := make([]string, writers)
	for w := range blobs {
		keep, floor, err := blobs[w].Retention()
		if err != nil {
			t.Fatal(err)
		}
		preInfo[w] = fmt.Sprintf("keep=%d floor=%d", keep, floor)
	}
	preStats := *c.VM.Manager().MaintStats()

	// Quiesced kill -9 of the entire durable control plane, then revival.
	c.KillVM(0)
	c.KillMeta(0)
	c.KillMeta(1)
	if err := c.RestartVM(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartMeta(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartMeta(1); err != nil {
		t.Fatal(err)
	}

	// Retention floors and GC statistics reconstructed exactly.
	for w := range blobs {
		var keep, floor uint64
		retryTransient(t, "retention after recovery", func() error {
			var err error
			keep, floor, err = blobs[w].Retention()
			return err
		})
		if got := fmt.Sprintf("keep=%d floor=%d", keep, floor); got != preInfo[w] {
			t.Errorf("blob %d retention after recovery = %s, want %s", blobs[w].ID(), got, preInfo[w])
		}
	}
	postStats := *c.VM.Manager().MaintStats()
	if postStats != preStats {
		t.Errorf("gc stats after recovery = %+v, want %+v", postStats, preStats)
	}

	// Every retained version byte-identical; reclaimed ones typed.
	for w := range blobs {
		if got := verifyVersions(t, c, blobs[w], expected[w]); got == 0 {
			t.Errorf("blob %d: no versions verified after recovery", blobs[w].ID())
		}
	}

	// GC still converges: the pruned and retention-floored history drains
	// from the work queue within a few sweeps.
	converged := false
	for i := 0; i < 10; i++ {
		if _, err := c.Maint.Run(maint.Reclaim); err != nil {
			t.Fatalf("gc sweep %d: %v", i, err)
		}
		if len(c.VM.Manager().GCWork()) == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("GC did not converge after recovery: pending %v", c.VM.Manager().GCWork())
	}
	if st := c.VM.Manager().MaintStats(); st[vmanager.GCPruned] == 0 {
		t.Errorf("no versions pruned by post-recovery GC: %+v", st)
	}
	// And the surviving tip still reads byte-identical after the sweep.
	for w := range blobs {
		if got := verifyVersions(t, c, blobs[w], expected[w]); got == 0 {
			t.Errorf("blob %d: nothing readable after GC", blobs[w].ID())
		}
	}

	// New writes keep flowing on the recovered deployment.
	extra := stormPayload(99, 0, payloadSize)
	for w := range blobs {
		writeWithRetry(t, blobs[w], extra, uint64(len(expected[w])))
		expected[w] = append(expected[w], extra...)
		buf := make([]byte, len(expected[w]))
		if _, err := blobs[w].Read(0, buf, 0); err != nil {
			t.Fatalf("post-recovery read of blob %d: %v", blobs[w].ID(), err)
		}
		if !bytes.Equal(buf, expected[w]) {
			t.Fatalf("post-recovery write of blob %d corrupted", blobs[w].ID())
		}
	}
}

// A volatile cluster (no DataDir) restarted in place must still come back
// serving — with empty state, which is precisely what the seed lost — so
// restart-in-place is usable for both durable and RAM-only experiments.
func TestRestartVolatileVMComesBackEmpty(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.CreateBlob(256, 1); err != nil {
		t.Fatal(err)
	}
	c.KillVM(0)
	if err := c.RestartVM(0); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	retryTransient(t, "list after volatile restart", func() error {
		var err error
		ids, err = cli.ListBlobs()
		return err
	})
	if len(ids) != 0 {
		t.Errorf("volatile restart kept blobs %v", ids)
	}
	if _, err := cli.CreateBlob(256, 1); err != nil {
		t.Fatalf("create after volatile restart: %v", err)
	}
}
