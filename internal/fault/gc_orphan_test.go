package fault_test

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

func providerChunkTotal(c *cluster.Cluster) (chunks int, bytes int64) {
	for _, p := range c.Providers {
		chunks += p.Store().Len()
		bytes += p.Store().Bytes()
	}
	return chunks, bytes
}

// A write that dies after uploading chunks but before weaving metadata
// leaves orphans on the data providers: chunks keyed by a write ID that no
// tree will ever reference. The GC orphan sweep must reclaim them once
// they outlive the grace period — without touching the blob's live data.
func TestAbortedWriteOrphansReclaimed(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		GCOrphanGrace: 30 * time.Millisecond,
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
	payload := bytes.Repeat([]byte{1}, 4*chunkSize)
	if _, err := blob.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	baseChunks, baseBytes := providerChunkTotal(c)

	// Fail a real write mid-flight: chunks upload fine, then the metadata
	// providers are unreachable, so weaving (and even abort-repair's
	// identity weave) fails and the writer aborts the version.
	for _, addr := range c.MetaAddrs() {
		c.Fabric.SetDown(addr, true)
	}
	_, err = blob.Write(bytes.Repeat([]byte{2}, 4*chunkSize), 0)
	if err == nil {
		t.Fatal("write with metadata providers down succeeded")
	}
	for _, addr := range c.MetaAddrs() {
		c.Fabric.SetDown(addr, false)
	}

	// A second flavor of orphan: a client that crashed after phase-1
	// upload, before the version manager ever heard of the write.
	probe := rpc.NewClientFrom(c.Network, 0, "crashed-client")
	defer probe.Close()
	orphanKey := chunk.Key{Blob: blob.ID(), Version: 1<<63 | 0xDEAD, Index: 0}
	if err := provider.PutChunk(context.Background(), probe, c.ProviderAddrs()[0], orphanKey, make([]byte, chunkSize)); err != nil {
		t.Fatal(err)
	}

	midChunks, _ := providerChunkTotal(c)
	if midChunks <= baseChunks {
		t.Fatalf("expected orphan chunks on providers: base %d, now %d", baseChunks, midChunks)
	}

	// Within the grace period nothing may be touched (the chunks could
	// belong to a write still in flight).
	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatalf("gc during grace: %v", err)
	}
	if n, _ := providerChunkTotal(c); n != midChunks {
		t.Fatalf("gc reclaimed inside the grace period: %d -> %d chunks", midChunks, n)
	}

	// After the grace the sweep reclaims every orphan.
	time.Sleep(50 * time.Millisecond)
	stats, err := c.Maint.Run(maint.Reclaim)
	if err != nil {
		t.Fatalf("gc after grace: %v", err)
	}
	if stats[vmanager.GCOrphans] == 0 {
		t.Fatalf("gc reported no orphans: %v", stats)
	}
	postChunks, postBytes := providerChunkTotal(c)
	if postChunks != baseChunks || postBytes != baseBytes {
		t.Fatalf("post-GC inventory %d chunks / %d bytes, want %d / %d",
			postChunks, postBytes, baseChunks, baseBytes)
	}

	// Live data is untouched; the aborted version reads as failed.
	buf := make([]byte, len(payload))
	if _, err := blob.Read(1, buf, 0); err != nil && err != io.EOF {
		t.Fatalf("read v1 after orphan sweep: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("live data corrupted by orphan sweep")
	}
	if _, err := blob.Read(2, buf, 0); !errors.Is(err, core.ErrFailedVersion) {
		t.Fatalf("read aborted v2: got %v, want ErrFailedVersion", err)
	}
}
