package maint_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// repairCluster starts a sim-fabric deployment with fast heartbeats so a
// killed provider ages out of the provider manager quickly.
func repairCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 20 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 250 * time.Millisecond
	}
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// testRPC builds a raw RPC client attributed to its own simulated machine.
func testRPC(t *testing.T, c *cluster.Cluster) *rpc.Client {
	t.Helper()
	cli := rpc.NewClientFrom(c.Network, 10*time.Second, "repair-test")
	t.Cleanup(cli.Close)
	return cli
}

// leafRefs walks the latest version's leaves through a fresh metadata
// client (no cache) and returns every chunk reference in index order.
func leafRefs(t *testing.T, c *cluster.Cluster, rpcCli *rpc.Client, blobID, version, sizeChunks uint64) []meta.ChunkRef {
	t.Helper()
	mc := meta.NewClient(rpcCli, c.MetaAddrs(), 1, 0)
	refs, err := meta.CollectLeaves(mc, blobID, version, sizeChunks, 0, sizeChunks)
	if err != nil {
		t.Fatalf("leaf walk: %v", err)
	}
	return refs
}

// The acceptance scenario: a replication-2 cluster loses one provider for
// good. The repair pass must restore every live chunk to two live
// replicas using batched RPCs, patch the metadata so reads stop probing
// the dead provider, and leave the blob fully readable.
func TestRepairRestoresReplicationAfterProviderDeath(t *testing.T) {
	c := repairCluster(t, cluster.Config{DataProviders: 4})

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 1024
	const chunks = 32
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, chunks*chunkSize)
	for i := range content {
		content[i] = byte(i * 7)
	}
	if _, err := blob.Write(content, 0); err != nil {
		t.Fatal(err)
	}

	// A client that read BEFORE the failure keeps its warm metadata cache
	// across the repair: its reads exercise failover against stale
	// descriptors.
	warmCli, err := c.NewClient(cluster.ClientOptions{MetaCacheNodes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	warmBlob, err := warmCli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(content))
	if _, err := warmBlob.Read(0, buf, 0); err != nil {
		t.Fatalf("pre-failure read: %v", err)
	}

	dead := c.ProviderAddrs()[0]
	c.KillProvider(0)
	time.Sleep(500 * time.Millisecond) // let the heartbeat timeout declare it dead

	rpcCli := testRPC(t, c)
	survivors := c.ProviderAddrs()[1:]
	before := make(map[string]*provider.Counters, len(survivors))
	for _, a := range survivors {
		st, err := provider.Stats(context.Background(), rpcCli, a)
		if err != nil {
			t.Fatalf("stats %s: %v", a, err)
		}
		before[a] = st
	}

	st, err := c.Maint.Run(maint.Replicate)
	if err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	// Round-robin at replication 2 over 4 providers puts dp0 in half the
	// replica sets.
	if got := st[vmanager.RepairUnderReplicated]; got != chunks/2 {
		t.Errorf("under-replicated = %d, want %d", got, chunks/2)
	}
	if got := st[vmanager.RepairReReplicated]; got != chunks/2 {
		t.Errorf("re-replicated = %d, want %d", got, chunks/2)
	}
	if st[vmanager.RepairLost] != 0 || st[vmanager.RepairErrors] != 0 {
		t.Errorf("lost=%d errors=%d, want 0/0", st[vmanager.RepairLost], st[vmanager.RepairErrors])
	}

	// Re-replication must ride batched RPCs: the copies land in at most
	// one putchunks (and drain in at most one getchunks) per surviving
	// provider — never one RPC per chunk.
	var putBatches, getBatches, copiesStored uint64
	for _, a := range survivors {
		after, err := provider.Stats(context.Background(), rpcCli, a)
		if err != nil {
			t.Fatalf("stats %s: %v", a, err)
		}
		putBatches += after[provider.PutBatches] - before[a][provider.PutBatches]
		getBatches += after[provider.GetBatches] - before[a][provider.GetBatches]
		copiesStored += after[provider.Puts] - before[a][provider.Puts]
	}
	if copiesStored != chunks/2 {
		t.Errorf("survivors stored %d repair copies, want %d", copiesStored, chunks/2)
	}
	if putBatches == 0 || putBatches > uint64(len(survivors)) {
		t.Errorf("putchunks batches = %d, want 1..%d (batched re-replication)", putBatches, len(survivors))
	}
	if getBatches == 0 || getBatches > uint64(len(survivors)) {
		t.Errorf("getchunks batches = %d, want 1..%d (batched source reads)", getBatches, len(survivors))
	}

	// Every live-version chunk is back at two replicas, none of them the
	// dead provider, and each listed replica really holds the bytes.
	version, sizeBytes, err := blob.Latest()
	if err != nil {
		t.Fatal(err)
	}
	sizeChunks := (sizeBytes + chunkSize - 1) / chunkSize
	refs := leafRefs(t, c, rpcCli, blob.ID(), version, sizeChunks)
	for i, ref := range refs {
		if len(ref.Providers) != 2 {
			t.Fatalf("chunk %d: %d replicas after repair, want 2 (%v)", i, len(ref.Providers), ref.Providers)
		}
		for _, a := range ref.Providers {
			if a == dead {
				t.Fatalf("chunk %d: patched descriptor still names dead provider %s", i, dead)
			}
			if _, err := provider.GetChunk(rpcCli, a, ref.Key); err != nil {
				t.Fatalf("chunk %d: replica at %s unreadable: %v", i, a, err)
			}
		}
	}

	// A fresh client reads the whole blob without ever probing the dead
	// provider: one get RPC per chunk, no failover.
	freshCli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	freshBlob, err := freshCli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(content))
	if _, err := freshBlob.Read(0, out, 0); err != nil {
		t.Fatalf("post-repair read: %v", err)
	}
	if !bytes.Equal(out, content) {
		t.Fatal("post-repair read returned wrong bytes")
	}
	if got := freshCli.IOStats().ChunkGetRPCs; got != chunks {
		t.Errorf("fresh reader used %d get RPCs for %d chunks; patched metadata should never probe the dead replica", got, chunks)
	}

	// The warm client's stale cache still lists the dead provider first;
	// failover (and the leaf-refresh path) must keep it correct.
	clear := make([]byte, len(content))
	if _, err := warmBlob.Read(0, clear, 0); err != nil {
		t.Fatalf("stale-cache read: %v", err)
	}
	if !bytes.Equal(clear, content) {
		t.Fatal("stale-cache read returned wrong bytes")
	}

	// A second pass finds nothing left to do.
	st2, err := c.Maint.Run(maint.Replicate)
	if err != nil {
		t.Fatalf("second repair pass: %v", err)
	}
	if st2[vmanager.RepairUnderReplicated] != 0 || st2[vmanager.RepairReReplicated] != 0 {
		t.Errorf("second pass: under=%d rerepl=%d, want 0/0", st2[vmanager.RepairUnderReplicated], st2[vmanager.RepairReReplicated])
	}
}

// Rebalance: a provider forced above the fullness high watermark is
// drained toward the low watermark; migrated chunks are patched in
// metadata, deleted at the source, and a reader holding pre-migration
// cached descriptors recovers through the leaf-refresh path.
func TestRebalanceDrainsOverfullProvider(t *testing.T) {
	const chunkSize = 1024
	const chunks = 32
	// Round-robin at replication 1 over 4 providers: 8 chunks (8 KiB)
	// land on dp0. Capacity 8 KiB puts dp0 at fullness 1.0; everyone else
	// is effectively empty.
	c := repairCluster(t, cluster.Config{
		DataProviders: 4,
		ProviderCapacity: func(i int) int64 {
			if i == 0 {
				return 8 * chunkSize
			}
			return 1 << 20
		},
		FullnessWatermark: 0.85,
		RepairLowWater:    0.50,
	})

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, chunks*chunkSize)
	for i := range content {
		content[i] = byte(i * 13)
	}
	if _, err := blob.Write(content, 0); err != nil {
		t.Fatal(err)
	}

	// Warm a cached reader before the migration so its descriptors go
	// stale when chunks move.
	warmCli, err := c.NewClient(cluster.ClientOptions{MetaCacheNodes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	warmBlob, err := warmCli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(content))
	if _, err := warmBlob.Read(0, buf, 0); err != nil {
		t.Fatalf("pre-migration read: %v", err)
	}

	time.Sleep(200 * time.Millisecond) // heartbeats must report post-write fullness

	overfull := c.Providers[0].Store()
	usedBefore := overfull.Bytes()
	if usedBefore != 8*chunkSize {
		t.Fatalf("dp0 holds %d bytes before rebalance, want %d", usedBefore, 8*chunkSize)
	}

	st, err := c.Maint.Run(maint.Replicate)
	if err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	if st[vmanager.RepairMigrated] == 0 {
		t.Fatalf("rebalance moved nothing off the overfull provider (stats %s)", maint.Replicate.Summary(&st, ""))
	}
	// Fullness 1.0 -> 0.50 target on an 8-chunk load: at least 4 chunks
	// move, and the drained copies are deleted at the source.
	usedAfter := overfull.Bytes()
	if usedAfter > usedBefore-4*chunkSize {
		t.Errorf("dp0 still holds %d bytes after rebalance (was %d)", usedAfter, usedBefore)
	}

	// Metadata no longer places anything beyond the watermark: count
	// leaves naming dp0.
	rpcCli := testRPC(t, c)
	version, sizeBytes, err := blob.Latest()
	if err != nil {
		t.Fatal(err)
	}
	sizeChunks := (sizeBytes + chunkSize - 1) / chunkSize
	refs := leafRefs(t, c, rpcCli, blob.ID(), version, sizeChunks)
	dp0 := c.ProviderAddrs()[0]
	onDp0 := 0
	for i, ref := range refs {
		if len(ref.Providers) != 1 {
			t.Fatalf("chunk %d: %d replicas, want 1", i, len(ref.Providers))
		}
		if ref.Providers[0] == dp0 {
			onDp0++
		}
	}
	if onDp0 > 4 {
		t.Errorf("%d chunks still placed on the overfull provider, want <= 4", onDp0)
	}

	// The stale-cache reader: its cached leaves still name dp0 for the
	// migrated (now deleted there) chunks. Every replica in the stale
	// descriptor fails, which must trigger the leaf refresh and succeed
	// against the patched placement.
	out := make([]byte, len(content))
	if _, err := warmBlob.Read(0, out, 0); err != nil {
		t.Fatalf("stale-cache read after migration: %v", err)
	}
	if !bytes.Equal(out, content) {
		t.Fatal("stale-cache read returned wrong bytes after migration")
	}

	// A fresh reader sees the patched placement directly.
	freshCli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	freshBlob, err := freshCli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshBlob.Read(0, out, 0); err != nil {
		t.Fatalf("fresh read after migration: %v", err)
	}
	if !bytes.Equal(out, content) {
		t.Fatal("fresh read returned wrong bytes after migration")
	}
}

// Regression: a chunk replicated on TWO overfull providers must not have
// both replicas migrated to the same destination in one pass — that
// would leave the leaf reading [dst, dst]: claimed degree 2, one
// physical copy, and no later pass re-detecting the loss. The planner
// moves at most one replica per chunk per pass.
func TestRebalanceNeverDuplicatesDestination(t *testing.T) {
	const chunkSize = 1024
	const chunks = 12
	// 3 providers at replication 2: 24 copies, 8 per provider. dp0 and
	// dp1 are capacity-bound at exactly their load (fullness 1.0); dp2 is
	// effectively empty. Chunks placed on (dp0, dp1) sit on two overfull
	// sources at once.
	c := repairCluster(t, cluster.Config{
		DataProviders: 3,
		ProviderCapacity: func(i int) int64 {
			if i == 2 {
				return 1 << 20
			}
			return 8 * chunkSize
		},
		FullnessWatermark: 0.85,
		RepairLowWater:    0.50,
	})
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, chunks*chunkSize)
	for i := range content {
		content[i] = byte(i * 11)
	}
	if _, err := blob.Write(content, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // heartbeats report post-write fullness

	rpcCli := testRPC(t, c)
	version, sizeBytes, err := blob.Latest()
	if err != nil {
		t.Fatal(err)
	}
	sizeChunks := (sizeBytes + chunkSize - 1) / chunkSize
	checkDistinct := func(pass int) {
		t.Helper()
		refs := leafRefs(t, c, rpcCli, blob.ID(), version, sizeChunks)
		for i, ref := range refs {
			if len(ref.Providers) != 2 {
				t.Fatalf("pass %d: chunk %d has %d replicas, want 2 (%v)", pass, i, len(ref.Providers), ref.Providers)
			}
			if ref.Providers[0] == ref.Providers[1] {
				t.Fatalf("pass %d: chunk %d lists the same provider twice: %v", pass, i, ref.Providers)
			}
			// Both listed replicas must physically exist.
			for _, a := range ref.Providers {
				if _, err := provider.GetChunk(rpcCli, a, ref.Key); err != nil {
					t.Fatalf("pass %d: chunk %d replica at %s unreadable: %v", pass, i, a, err)
				}
			}
		}
	}
	for pass := 1; pass <= 3; pass++ {
		if _, err := c.Maint.Run(maint.Replicate); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		checkDistinct(pass)
		time.Sleep(150 * time.Millisecond) // fresh fullness for the next pass
	}
	out := make([]byte, len(content))
	fresh, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(0, out, 0); err != nil {
		t.Fatalf("read after rebalance passes: %v", err)
	}
	if !bytes.Equal(out, content) {
		t.Fatal("content corrupted by rebalance")
	}
}

// Multi-version safety: repair patches every leaf referencing a chunk
// (retained snapshots share leaves via abort repair and untouched
// subtrees), so older retained versions heal too.
func TestRepairHealsAllRetainedVersions(t *testing.T) {
	c := repairCluster(t, cluster.Config{DataProviders: 4})

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 1024
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three versions: v1 writes chunks 0-7, v2 overwrites 0-3, v3 4-7.
	v1 := bytes.Repeat([]byte{1}, 8*chunkSize)
	if _, err := blob.Write(v1, 0); err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte{2}, 4*chunkSize)
	if _, err := blob.Write(v2, 0); err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Repeat([]byte{3}, 4*chunkSize)
	if _, err := blob.Write(v3, 4*chunkSize); err != nil {
		t.Fatal(err)
	}

	c.KillProvider(1)
	time.Sleep(500 * time.Millisecond)
	if _, err := c.Maint.Run(maint.Replicate); err != nil {
		t.Fatalf("repair: %v", err)
	}

	// Every retained version reads correctly with provider 1 gone.
	expect := map[uint64][]byte{
		1: v1,
		2: append(append([]byte(nil), v2...), v1[4*chunkSize:]...),
		3: append(append([]byte(nil), v2...), v3...),
	}
	for v, want := range expect {
		got := make([]byte, len(want))
		freshCli, err := c.NewClient(cluster.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := freshCli.OpenBlob(blob.ID())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Read(v, got, 0); err != nil {
			t.Fatalf("read v%d after repair: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d content wrong after repair", v)
		}
		if gets := freshCli.IOStats().ChunkGetRPCs; gets != int64(len(want))/chunkSize {
			t.Errorf("v%d: %d get RPCs for %d chunks (dead replica still probed?)", v, gets, len(want)/chunkSize)
		}
	}
}

// A dead provider that RETURNS after its chunks were re-homed holds stray
// copies the metadata no longer references there; the GC orphan sweep
// reclaims them (replica-aware memo).
func TestReturnedProviderStraysReclaimedByGC(t *testing.T) {
	c := repairCluster(t, cluster.Config{
		DataProviders: 4,
		GCOrphanGrace: 300 * time.Millisecond,
	})

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 1024
	const chunks = 16
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, chunks*chunkSize)
	if _, err := blob.Write(content, 0); err != nil {
		t.Fatal(err)
	}

	deadStore := c.Providers[0].Store()
	strayBefore := deadStore.Len()
	if strayBefore == 0 {
		t.Fatal("test setup: provider 0 holds nothing")
	}

	c.KillProvider(0)
	time.Sleep(500 * time.Millisecond)
	if _, err := c.Maint.Run(maint.Replicate); err != nil {
		t.Fatalf("repair: %v", err)
	}

	// The provider comes back, still holding its pre-crash copies, which
	// no leaf references anymore.
	if err := c.ReviveProvider(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // re-register + age past the orphan grace

	gcStats, err := c.Maint.Run(maint.Reclaim)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if deadStore.Len() != 0 {
		t.Errorf("returned provider still holds %d stray chunks after GC (reclaimed %s)", deadStore.Len(), maint.Reclaim.Summary(&gcStats, ""))
	}

	// Blob still reads clean at full degree.
	out := make([]byte, len(content))
	freshCli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := freshCli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(0, out, 0); err != nil {
		t.Fatalf("read after stray sweep: %v", err)
	}
	if !bytes.Equal(out, content) {
		t.Fatal("content corrupted by stray sweep")
	}
}

// Repair aggregates pass counters at the version manager, queryable like
// the GC stats.
func TestRepairStatsAggregateAtVManager(t *testing.T) {
	c := repairCluster(t, cluster.Config{DataProviders: 4})
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Write(make([]byte, 8*1024), 0); err != nil {
		t.Fatal(err)
	}
	c.KillProvider(2)
	time.Sleep(500 * time.Millisecond)
	st, err := c.Maint.Run(maint.Replicate)
	if err != nil {
		t.Fatal(err)
	}
	agg := c.VM.Manager().MaintStats()
	if agg[vmanager.RepairPasses] != 1 || agg[vmanager.RepairReReplicated] == 0 {
		t.Errorf("vmanager repair totals = %s, want passes=1 and re-replications recorded", maint.Replicate.Summary(agg, ""))
	}
	if st[vmanager.RepairPasses] != 1 || st[vmanager.RepairReReplicated] != agg[vmanager.RepairReReplicated] {
		t.Errorf("pass delta %s disagrees with vmanager aggregate %s", maint.Replicate.Summary(&st, ""), maint.Replicate.Summary(agg, ""))
	}
}
