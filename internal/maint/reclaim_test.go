package maint_test

import (
	"bytes"
	"context"
	"errors"
	"io"
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

func providerTotals(t *testing.T, c *cluster.Cluster) (chunks, bytes uint64) {
	t.Helper()
	cli := rpc.NewClientFrom(c.Network, 0, "stats-probe")
	defer cli.Close()
	for _, addr := range c.ProviderAddrs() {
		st, err := provider.Stats(context.Background(), cli, addr)
		if err != nil {
			t.Fatalf("stats of %s: %v", addr, err)
		}
		chunks += st.Chunks
		bytes += st.Bytes
	}
	return chunks, bytes
}

func metaNodeTotal(c *cluster.Cluster) int {
	n := 0
	for _, ms := range c.MetaServers {
		n += ms.NodeCount()
	}
	return n
}

// The acceptance scenario: many versions overwriting the same region,
// prune to keep-last-1, and live provider bytes must drop to within 2x of
// the final snapshot's logical size while the retained version stays
// readable and pruned versions fail with the typed error.
func TestKeepLastOneReclaimsToFinalSnapshotSize(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 1024
	const logical = 4 * chunkSize
	blob, err := cli.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	const versions = 60
	content := make([][]byte, versions+1)
	for v := 1; v <= versions; v++ {
		content[v] = bytes.Repeat([]byte{byte(v)}, logical)
		if _, err := blob.Write(content[v], 0); err != nil {
			t.Fatalf("write v%d: %v", v, err)
		}
	}
	_, preBytes := providerTotals(t, c)
	if preBytes != versions*logical {
		t.Fatalf("pre-GC provider bytes = %d, want %d", preBytes, versions*logical)
	}
	preNodes := metaNodeTotal(c)

	if err := blob.SetRetention(1); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Maint.Run(maint.Reclaim)
	if err != nil {
		t.Fatalf("gc run: %v", err)
	}
	if stats[vmanager.GCChunks] == 0 || stats[vmanager.GCBytes] == 0 || stats[vmanager.GCNodes] == 0 {
		t.Fatalf("gc reclaimed nothing: %s", maint.Reclaim.Summary(&stats, ""))
	}

	_, postBytes := providerTotals(t, c)
	if postBytes > 2*logical {
		t.Fatalf("post-GC provider bytes = %d, want <= %d (2x logical)", postBytes, 2*logical)
	}
	if postNodes := metaNodeTotal(c); postNodes >= preNodes {
		t.Fatalf("metadata nodes did not shrink: %d -> %d", preNodes, postNodes)
	}

	// The retained version reads back exactly.
	buf := make([]byte, logical)
	if _, err := blob.Read(versions, buf, 0); err != nil && err != io.EOF {
		t.Fatalf("read retained v%d: %v", versions, err)
	}
	if !bytes.Equal(buf, content[versions]) {
		t.Fatal("retained version corrupted by GC")
	}
	// Every pruned version fails with the typed error.
	for _, v := range []uint64{1, uint64(versions) / 2, versions - 1} {
		_, err := blob.Read(v, buf, 0)
		if !errors.Is(err, core.ErrVersionReclaimed) {
			t.Fatalf("read pruned v%d: got %v, want ErrVersionReclaimed", v, err)
		}
	}
	// Deployment-wide stats surfaced through the version manager.
	gs, err := cli.GCStats()
	if err != nil {
		t.Fatal(err)
	}
	if gs.PrunedVersions != versions-1 || gs.Bytes != stats[vmanager.GCBytes] {
		t.Fatalf("gc stats = %+v, want %d pruned and %d bytes", gs, versions-1, stats[vmanager.GCBytes])
	}
}

// Prune to keep-last-5 over an append-grown blob: old chunks that the
// retained snapshots still reference must survive, reclaimed bytes must
// shrink the providers, and the explicit Prune API must refuse to drop the
// newest published version.
func TestPruneKeepsSharedHistoryReadable(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 512
	blob, err := cli.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	const versions = 100
	const part = chunkSize // chunk-aligned appends
	for v := 1; v <= versions; v++ {
		if _, _, err := blob.Append(bytes.Repeat([]byte{byte(v)}, part)); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
	preChunks, preBytes := providerTotals(t, c)

	if _, err := blob.Prune(versions); err == nil {
		t.Fatal("pruning the newest published version succeeded, want error")
	}
	floor, err := blob.Prune(versions - 5)
	if err != nil {
		t.Fatal(err)
	}
	if floor != versions-4 {
		t.Fatalf("retention floor = %d, want %d", floor, versions-4)
	}
	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatalf("gc run: %v", err)
	}

	postChunks, postBytes := providerTotals(t, c)
	// Appends never overwrite, so every chunk stays referenced by the
	// floor tree: byte counts must NOT change...
	if postBytes != preBytes || postChunks != preChunks {
		t.Fatalf("append-only prune changed provider bytes %d->%d", preBytes, postBytes)
	}
	// ...but the pruned versions' metadata spines are gone.
	buf := make([]byte, part)
	if _, err := blob.Read(uint64(versions-4), buf, 0); err != nil && err != io.EOF {
		t.Fatalf("read floor version: %v", err)
	}
	if buf[0] != 1 {
		t.Fatalf("floor version chunk 0 = %d, want 1 (original append preserved)", buf[0])
	}
	if _, err := blob.Read(3, buf, 0); !errors.Is(err, core.ErrVersionReclaimed) {
		t.Fatalf("read pruned v3: got %v, want ErrVersionReclaimed", err)
	}

	// Now overwrite everything a few times and prune again: this time the
	// old append chunks die (nothing retained references them).
	final, size, err := blob.Latest()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if final, err = blob.Write(bytes.Repeat([]byte{0xAB}, int(size)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := blob.Prune(final - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatal(err)
	}
	_, postBytes2 := providerTotals(t, c)
	if postBytes2 != size {
		t.Fatalf("after full-overwrite prune provider bytes = %d, want %d", postBytes2, size)
	}
}

func TestDeleteBlobReclaimsEverything(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := cli.CreateBlob(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	keeper, err := cli.CreateBlob(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 2048)
	for i := 0; i < 5; i++ {
		if _, err := doomed.Write(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := keeper.Write(payload, 0); err != nil {
		t.Fatal(err)
	}

	if err := cli.DeleteBlob(doomed.ID()); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := cli.DeleteBlob(doomed.ID()); err != nil {
		t.Fatal(err)
	}
	// All operations refused, with the typed error.
	if _, err := cli.OpenBlob(doomed.ID()); !errors.Is(err, core.ErrBlobDeleted) {
		t.Fatalf("open deleted blob: got %v, want ErrBlobDeleted", err)
	}
	if _, _, err := doomed.Latest(); !errors.Is(err, core.ErrBlobDeleted) {
		t.Fatalf("latest of deleted blob: got %v, want ErrBlobDeleted", err)
	}
	if _, err := doomed.Write(payload, 0); err == nil {
		t.Fatal("write to deleted blob succeeded")
	}
	ids, err := cli.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == doomed.ID() {
			t.Fatal("deleted blob still listed")
		}
	}

	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatalf("gc run: %v", err)
	}
	_, postBytes := providerTotals(t, c)
	if postBytes != 2048 { // only the keeper's single snapshot remains
		t.Fatalf("post-delete provider bytes = %d, want 2048", postBytes)
	}
	// Keeper unaffected.
	buf := make([]byte, 2048)
	if _, err := keeper.Read(0, buf, 0); err != nil && err != io.EOF {
		t.Fatalf("keeper read: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("keeper blob corrupted by delete sweep")
	}
	gs, err := cli.GCStats()
	if err != nil {
		t.Fatal(err)
	}
	if gs.PendingBlobs != 0 {
		t.Fatalf("pending GC work after sweep: %+v", gs)
	}
}

// The background loop: with an interval configured and a retention policy
// installed, space comes back without any manual RunGC call.
func TestBackgroundLoopReclaims(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		GCInterval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.SetRetention(1); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 2048)
	for i := 0; i < 20; i++ {
		if _, err := blob.Write(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, b := quietProviderTotals(c); b <= 2*2048 {
			return
		}
		if time.Now().After(deadline) {
			_, b := quietProviderTotals(c)
			t.Fatalf("background GC did not reclaim within 5s (bytes=%d)", b)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func quietProviderTotals(c *cluster.Cluster) (chunks, bytes uint64) {
	for _, p := range c.Providers {
		chunks += uint64(p.Store().Len())
		bytes += uint64(p.Store().Bytes())
	}
	return chunks, bytes
}

// The delete sweep installs tombstones on every provider before listing
// inventory, so a phase-1 chunk upload racing the sweep is rejected
// instead of leaking until the blob's next sweep.
func TestDeleteSweepInstallsProviderTombstones(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := cli.CreateBlob(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Write(bytes.Repeat([]byte{3}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := cli.DeleteBlob(doomed.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatal(err)
	}

	// A late phase-1 upload (chunk put ahead of any version assignment)
	// for the deleted blob must be rejected by every provider.
	raw := rpc.NewClientFrom(c.Network, 0, "late-writer")
	defer raw.Close()
	for _, addr := range c.ProviderAddrs() {
		err := provider.PutChunk(context.Background(), raw, addr, chunk.Key{Blob: doomed.ID(), Version: 99, Index: 0}, []byte("late"))
		if err == nil {
			t.Fatalf("late put for deleted blob accepted by %s", addr)
		}
	}
	// And providers hold nothing for it.
	chunks, _ := providerTotals(t, c)
	if chunks != 0 {
		t.Fatalf("provider chunks after delete sweep = %d, want 0", chunks)
	}
}
