package fault_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/maint"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// chunkKeyOn finds blob/index's chunk key by scanning provider i's
// inventory (tests cannot reconstruct the key a priori: its version field
// is the writer's private write ID, not the published version number).
func chunkKeyOn(t *testing.T, c *cluster.Cluster, i int, blob, index uint64) chunk.Key {
	t.Helper()
	for _, k := range c.Providers[i].Store().Keys() {
		if k.Blob == blob && k.Index == index {
			return k
		}
	}
	t.Fatalf("provider %d holds no chunk %d of blob %d", i, index, blob)
	return chunk.Key{}
}

// providerIndex maps a provider address back to its cluster slot.
func providerIndex(t *testing.T, c *cluster.Cluster, addr string) int {
	t.Helper()
	for i, a := range c.ProviderAddrs() {
		if a == addr {
			return i
		}
	}
	t.Fatalf("no provider at %s", addr)
	return -1
}

// The detection half of the bit-rot scenario: with one replica of a
// repl-2 chunk bit-rotted, no reader may ever receive wrong bytes. The
// corrupted copy sits FIRST in placement order, so a fresh client reading
// that chunk alone (all health scores zero, stable sort preserves
// placement order) provably reads it, gets the provider's typed
// ErrChunkCorrupt instead of rot, and fails over to the good replica.
// Concurrent readers of the whole blob follow, under -race.
func TestCorruptReplicaReadFailover(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 3, MetaProviders: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writer, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 256
	blob, err := writer.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	expected := stormPayload(7, 0, 4*chunkSize)
	if _, err := blob.Write(expected, 0); err != nil {
		t.Fatal(err)
	}

	// Rot one byte of chunk 0's first-choice replica, in the store itself.
	locs, err := blob.Locations(0, 0, uint64(len(expected)))
	if err != nil {
		t.Fatal(err)
	}
	victim := providerIndex(t, c, locs[0].Providers[0])
	key := chunkKeyOn(t, c, victim, blob.ID(), 0)
	if err := c.CorruptChunk(victim, key, 5); err != nil {
		t.Fatal(err)
	}

	// Concurrent fresh readers: every read must return the pre-rot bytes.
	reader, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rblob, err := reader.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0 first and alone: a parallel fetch of another chunk from the
	// victim could score it before chunk 0's replicas are ordered, and
	// then the rotted copy would never be read.
	first := make([]byte, chunkSize)
	if _, err := rblob.Read(0, first, 0); err != nil {
		t.Fatalf("first read of chunk 0: %v", err)
	}
	if !bytes.Equal(first, expected[:chunkSize]) {
		t.Fatal("first read of chunk 0 got wrong bytes through corrupt replica")
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for r := 0; r < len(errs); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, len(expected))
			if _, err := rblob.Read(0, buf, 0); err != nil {
				errs[r] = err
				return
			}
			if !bytes.Equal(buf, expected) {
				t.Errorf("reader %d got wrong bytes through corrupt replica", r)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v (failover should mask one corrupt replica)", r, err)
		}
	}

	// The client noticed the corruption (typed error, counted) and the
	// provider quarantined its copy the moment its pre-send check failed.
	if got := reader.IOStats().ChunkCorruptReads; got < 1 {
		t.Errorf("client ChunkCorruptReads = %d, want >= 1 (corrupt replica was first choice)", got)
	}
	ps := c.Providers[victim].Counters()
	if ps[provider.Corrupt] < 1 || ps[provider.Quarantined] < 1 {
		t.Errorf("victim provider corrupt=%d quarantined=%d, want both >= 1", ps[provider.Corrupt], ps[provider.Quarantined])
	}
}

// The healing half of the bit-rot scenario: a scrub pass finds the
// rotted copy with no reader involved, and one RunScrub call (scrub +
// chained repair) restores the replication degree — a verified copy on a
// fresh provider, the quarantined one deleted — with reads clean after.
func TestScrubRestoresDegree(t *testing.T) {
	testScrubRestoresDegree(t, cluster.Config{DataProviders: 3, MetaProviders: 1})
}

// Same scenario on the persistent engine: the rot lives in a chunk FILE
// (flipped on disk), the heal deletes that file, and the
// sidecar carries the digests.
func TestScrubRestoresDegreeDiskEngine(t *testing.T) {
	testScrubRestoresDegree(t, cluster.Config{DataProviders: 3, MetaProviders: 1, DataDir: t.TempDir()})
}

func testScrubRestoresDegree(t *testing.T, cfg cluster.Config) {
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 256
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	expected := stormPayload(8, 0, 3*chunkSize)
	if _, err := blob.Write(expected, 0); err != nil {
		t.Fatal(err)
	}

	locs, err := blob.Locations(0, 0, uint64(len(expected)))
	if err != nil {
		t.Fatal(err)
	}
	victim := providerIndex(t, c, locs[0].Providers[0])
	key := chunkKeyOn(t, c, victim, blob.ID(), 0)
	if err := c.CorruptChunk(victim, key, 9); err != nil {
		t.Fatal(err)
	}

	st, err := c.Maint.Run(maint.Verify)
	if err != nil {
		t.Fatalf("scrub pass: %v", err)
	}
	if st[vmanager.ScrubCorruptFound] != 1 {
		t.Errorf("scrub CorruptFound = %d, want 1", st[vmanager.ScrubCorruptFound])
	}
	if st[vmanager.ScrubScanned] < 6 { // 3 chunks x repl 2
		t.Errorf("scrub ChunksScanned = %d, want >= 6", st[vmanager.ScrubScanned])
	}

	// Degree restored within the one pass: two verified copies live again,
	// the quarantined copy is gone, nothing is left flagged anywhere.
	copies := 0
	for i := range c.Providers {
		if c.Providers[i].Store().Has(key) {
			copies++
		}
		if q := c.Providers[i].Counters()[provider.Quarantined]; q != 0 {
			t.Errorf("provider %d still quarantines %d copies after heal", i, q)
		}
	}
	if copies != 2 {
		t.Errorf("chunk %s on %d providers after heal, want 2", key, copies)
	}
	if c.Providers[victim].Store().Has(key) {
		t.Error("corrupt copy still present on victim provider after purge")
	}

	// The pass counters aggregated at the version manager: scrub totals
	// from the scrub engine, the purge from the chained repair pass.
	agg := c.VM.Manager().MaintStats()
	if agg[vmanager.ScrubPasses] < 1 || agg[vmanager.ScrubCorruptFound] < 1 {
		t.Errorf("vmanager scrub totals = %s, want passes and corrupt-found >= 1", maint.Verify.Summary(agg, ""))
	}
	if agg[vmanager.RepairCorruptPurged] < 1 || agg[vmanager.RepairReReplicated] < 1 {
		t.Errorf("vmanager repair totals corrupt-purged=%d re-replicated=%d, want both >= 1",
			agg[vmanager.RepairCorruptPurged], agg[vmanager.RepairReReplicated])
	}

	// End to end: the healed blob reads back byte-identical.
	buf := make([]byte, len(expected))
	if _, err := blob.Read(0, buf, 0); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(buf, expected) {
		t.Fatal("healed blob reads back wrong bytes")
	}

	// And a second pass over the healed cluster is clean.
	st, err = c.Maint.Run(maint.Verify)
	if err != nil {
		t.Fatal(err)
	}
	if st[vmanager.ScrubCorruptFound] != 0 {
		t.Errorf("second scrub pass found %d corrupt copies, want 0", st[vmanager.ScrubCorruptFound])
	}
}
