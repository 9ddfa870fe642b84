package fault_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// The PR acceptance scenario: a writer that vanishes between Assign and
// Commit must no longer wedge the blob. The lease lapses, the expiry loop
// aborts the version and weaves its identity tree server-side, and a
// fresh writer publishes within 2x the lease TTL — with the version
// manager left running the whole time (the seed needed a restart).
func TestWriterLeaseUnwedgesVanishedWriter(t *testing.T) {
	const leaseTTL = 250 * time.Millisecond
	c, err := cluster.Start(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		LeaseTTL:      leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 256
	blob, err := cli.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	expected := stormPayload(1, 0, 4*chunkSize)
	if _, err := blob.Write(expected, 0); err != nil {
		t.Fatal(err)
	}

	// Writer A assigns chunks [0,2) of a new version and vanishes: no
	// upload, no weave, no commit, no heartbeat. Calling the manager
	// directly IS the crash simulation — a real client that dies right
	// after its Assign RPC leaves exactly this state behind.
	mgr := c.VM.Manager()
	wedge, err := mgr.Assign(&vmanager.AssignReq{BlobID: blob.ID(), Offset: 0, Size: 2 * chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if wedge.LeaseTTLMs != uint64(leaseTTL/time.Millisecond) {
		t.Fatalf("assign granted LeaseTTLMs = %d, want %d", wedge.LeaseTTLMs, leaseTTL/time.Millisecond)
	}
	deadline := time.Now().Add(2 * leaseTTL)

	// Writer B (a live client) overwrites chunk 0. The write is chunk-
	// aligned so it commits without serializing behind the wedged
	// version; only its PUBLICATION is held back.
	patch := stormPayload(1, 1, chunkSize)
	bVer, err := blob.Write(patch, 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(expected, patch)

	// The frontier must reach B within 2x the lease TTL, no restart.
	for {
		latest, _, err := blob.Latest()
		if err == nil && latest == bVer {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frontier still wedged %v after the dead Assign (latest %d, want %d)",
				2*leaseTTL, latest, bVer)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wi, err := mgr.VersionInfo(blob.ID(), wedge.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !wi.Failed {
		t.Fatalf("wedged version %d not aborted: %+v", wedge.Version, wi)
	}
	if st := mgr.LeaseStats(); st.Expired == 0 {
		t.Fatalf("lease stats report no expiries: %+v", st)
	}

	// B wove against the wedged version's in-flight descriptor, so a full
	// read of B descends through the aborted version's nodes for chunk 1
	// — which exist only because the expiry loop wove them server-side.
	buf := make([]byte, len(expected))
	if _, err := blob.Read(bVer, buf, 0); err != nil {
		t.Fatalf("full read through the woven abort: %v", err)
	}
	if !bytes.Equal(buf, expected) {
		t.Fatal("read through woven identity diverged from writer streams")
	}
	if unwoven := mgr.UnwovenAborts(); len(unwoven) != 0 {
		t.Fatalf("expiry left GC debt %+v, want server-side weave", unwoven)
	}

	// A later read-modify-write merges boundary chunks through the
	// repaired history without tripping over the abort.
	rmw := stormPayload(1, 2, chunkSize)
	rmwVer, err := blob.Write(rmw, chunkSize/2)
	if err != nil {
		t.Fatalf("read-modify-write over the woven abort: %v", err)
	}
	copy(expected[chunkSize/2:], rmw)
	buf = make([]byte, len(expected))
	if _, err := blob.Read(rmwVer, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, expected) {
		t.Fatal("post-merge content diverged")
	}
}

// A writer that dies mid-upload leaves wedge + garbage: an assigned
// version holding the frontier and phase-1 chunks keyed by a write ID no
// tree will ever reference. The lease expiry un-wedges the frontier, and
// — because aborting the version re-equalizes Assigned and Published —
// the orphan sweep un-parks and reclaims the dead writer's chunks.
func TestWriterLeaseMidUploadCrashOrphansReclaimed(t *testing.T) {
	const leaseTTL = 300 * time.Millisecond
	c, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		LeaseTTL:      leaseTTL,
		GCOrphanGrace: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 256
	blob, err := cli.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	expected := stormPayload(2, 0, 2*chunkSize)
	if _, err := blob.Write(expected, 0); err != nil {
		t.Fatal(err)
	}
	baseChunks, _ := providerChunkTotal(c)

	// The doomed writer's phase-1 upload: two chunks keyed by its write
	// ID land on a provider, then Assign, then the crash.
	probe := rpc.NewClientFrom(c.Network, 0, "doomed-writer")
	defer probe.Close()
	const writeID = 1<<63 | 0xBEEF
	for i := uint64(0); i < 2; i++ {
		key := chunk.Key{Blob: blob.ID(), Version: writeID, Index: i}
		if err := provider.PutChunk(context.Background(), probe, c.ProviderAddrs()[0], key, make([]byte, chunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	wedge, err := c.VM.Manager().Assign(&vmanager.AssignReq{BlobID: blob.ID(), Offset: 0, Size: 2 * chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * leaseTTL)

	// While the version is wedged in flight the orphan sweep stays parked
	// — the chunks could belong to a writer about to weave them in.
	time.Sleep(40 * time.Millisecond) // past the orphan grace, inside the TTL
	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatalf("gc while wedged: %v", err)
	}
	if n, _ := providerChunkTotal(c); n != baseChunks+2 {
		t.Fatalf("parked orphan sweep touched chunks: %d, want %d", n, baseChunks+2)
	}

	// The lease lapses and the expiry loop aborts the wedge.
	for {
		wi, err := c.VM.Manager().VersionInfo(blob.ID(), wedge.Version)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged version not expired %v after Assign", 2*leaseTTL)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Un-parked: the next sweep reclaims the dead writer's chunks.
	stats, err := c.Maint.Run(maint.Reclaim)
	if err != nil {
		t.Fatalf("gc after expiry: %v", err)
	}
	if stats[vmanager.GCOrphans] == 0 {
		t.Fatalf("sweep reclaimed no orphans: %v", stats)
	}
	if n, _ := providerChunkTotal(c); n != baseChunks {
		t.Fatalf("provider chunks = %d after sweep, want %d", n, baseChunks)
	}

	// The blob is fully usable: append publishes and reads back.
	tail := stormPayload(2, 1, chunkSize)
	if _, _, err := blob.Append(tail); err != nil {
		t.Fatal(err)
	}
	expected = append(expected, tail...)
	verifyVersions(t, c, blob, expected)
}

// A slow-but-alive writer is not a dead one: renewal heartbeats keep the
// lease ahead of the expiry loop for as long as the upload takes, and the
// commit lands normally. Once the heartbeats stop, the next assigned
// version expires and a late commit is refused with the typed lease error
// across the RPC boundary.
func TestWriterLeaseRenewalKeepsSlowWriterAlive(t *testing.T) {
	const leaseTTL = 150 * time.Millisecond
	c, err := cluster.Start(cluster.Config{
		DataProviders: 1,
		MetaProviders: 1,
		LeaseTTL:      leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(256, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A raw writer that takes 3x the TTL between Assign and Commit,
	// heartbeating at TTL/2 the whole way.
	raw := rpc.NewClientFrom(c.Network, 0, "slow-writer")
	defer raw.Close()
	var assign vmanager.AssignResp
	if err := raw.Call(c.VMAddr(), vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: blob.ID(), Size: 256, Append: true}, &assign); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		time.Sleep(leaseTTL / 2)
		if err := raw.Call(c.VMAddr(), vmanager.MethodRenewLease,
			&vmanager.VersionRef{BlobID: blob.ID(), Version: assign.Version}, &vmanager.Ack{}); err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
	}
	if err := raw.Call(c.VMAddr(), vmanager.MethodCommit,
		&vmanager.VersionRef{BlobID: blob.ID(), Version: assign.Version}, &vmanager.Ack{}); err != nil {
		t.Fatalf("commit after %v of renewed upload: %v", 3*leaseTTL, err)
	}
	var stats vmanager.LeaseStatsResp
	if err := raw.Call(c.VMAddr(), vmanager.MethodLeaseStats, &vmanager.Ack{}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Renewed < 6 || stats.Expired != 0 {
		t.Fatalf("lease stats = %+v, want >=6 renewals and no expiries", stats)
	}

	// Same writer, no heartbeats: the version expires and the late commit
	// is told exactly why.
	var assign2 vmanager.AssignResp
	if err := raw.Call(c.VMAddr(), vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: blob.ID(), Size: 256, Append: true}, &assign2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * leaseTTL)
	for {
		wi, err := c.VM.Manager().VersionInfo(blob.ID(), assign2.Version)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unrenewed version not expired %v after Assign", 2*leaseTTL)
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = raw.Call(c.VMAddr(), vmanager.MethodCommit,
		&vmanager.VersionRef{BlobID: blob.ID(), Version: assign2.Version}, &vmanager.Ack{})
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "lease expired") {
		t.Fatalf("late commit = %v, want remote lease-expired refusal", err)
	}
}

// A client whose version is aborted under it mid-write gets the typed
// ErrLeaseExpired from its commit — never a silent publish of a version
// the manager already gave up on — and the GC sweep (not the dead
// client) is what makes the aborted versions whole again.
func TestWriterLeaseLateCommitTypedError(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		LeaseTTL:      time.Minute, // leases on; expiry effectively never fires
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 256
	blob, err := cli.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	expected := stormPayload(3, 0, 4*chunkSize)
	if _, err := blob.Write(expected, 0); err != nil {
		t.Fatal(err)
	}

	// A wedge writer vanishes; then client B starts an UNALIGNED write,
	// which serializes behind the wedge (boundary merge waits for its
	// predecessor to publish).
	mgr := c.VM.Manager()
	wedge, err := mgr.Assign(&vmanager.AssignReq{BlobID: blob.ID(), Offset: 0, Size: 2 * chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	writeDone := make(chan error, 1)
	go func() {
		_, err := blob.Write(stormPayload(3, 1, chunkSize), chunkSize/2)
		writeDone <- err
	}()
	// Wait until B holds its version, then abort it under it — the same
	// transition lease expiry performs, made deterministic.
	bVersion := wedge.Version + 1
	retryTransient(t, "waiting for B's assign", func() error {
		status, err := mgr.GCStatus(blob.ID())
		if err != nil {
			return err
		}
		if status.Assigned < bVersion {
			return errors.New("B has not assigned yet")
		}
		return nil
	})
	if err := mgr.AbortWoven(blob.ID(), bVersion, false); err != nil {
		t.Fatal(err)
	}
	// Release B: abort the wedge so the frontier passes both versions.
	if err := mgr.AbortWoven(blob.ID(), wedge.Version, false); err != nil {
		t.Fatal(err)
	}
	if err := <-writeDone; !errors.Is(err, core.ErrLeaseExpired) {
		t.Fatalf("commit of an aborted-under-it write = %v, want core.ErrLeaseExpired", err)
	}

	// Both aborts were recorded unwoven; the GC sweep owes them identity
	// trees and settles the debt in one pass (B wove its real tree before
	// committing — the sweep tolerates those nodes and fills the rest).
	stats, err := c.Maint.Run(maint.Reclaim)
	if err != nil {
		t.Fatalf("gc over unwoven aborts: %v", err)
	}
	if stats[vmanager.GCWoven] == 0 {
		t.Fatalf("gc wove nothing: %v", stats)
	}
	if unwoven := mgr.UnwovenAborts(); len(unwoven) != 0 {
		t.Fatalf("still unwoven after sweep: %+v", unwoven)
	}

	// The repaired history reads and merges cleanly.
	rmw := stormPayload(3, 2, chunkSize)
	rmwVer, err := blob.Write(rmw, chunkSize/2)
	if err != nil {
		t.Fatalf("read-modify-write over GC-woven aborts: %v", err)
	}
	copy(expected[chunkSize/2:], rmw)
	buf := make([]byte, len(expected))
	if _, err := blob.Read(rmwVer, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, expected) {
		t.Fatal("post-repair content diverged")
	}
}
