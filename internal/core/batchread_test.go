package core_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/provider"
)

// writeBlob writes chunks chunks of chunkSize bytes at replication 2 and
// returns the blob, its version and its bytes.
func writeBlob(t *testing.T, c *cluster.Cluster, chunkSize, chunks int) (*core.Blob, uint64, []byte) {
	t.Helper()
	blob, err := newClient(t, c, cluster.ClientOptions{}).CreateBlob(uint64(chunkSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(chunkSize*chunks, 3)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blob, v, data
}

// freshRead reads the whole version with a new client (no health scores
// yet: every chunk's first choice is its first placed replica) and
// returns the client, after checking the bytes.
func freshRead(t *testing.T, c *cluster.Cluster, blob *core.Blob, v uint64, want []byte) *core.Client {
	t.Helper()
	cli := newClient(t, c, cluster.ClientOptions{})
	b, err := cli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := b.Read(v, got, 0); err != nil || n != len(want) {
		t.Fatalf("read: %d bytes, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned bytes that are not the blob's")
	}
	return cli
}

// providerGets sums the providers' served chunk reads and getchunks
// batches.
func providerGets(c *cluster.Cluster) (gets, batches uint64) {
	for _, p := range c.Providers {
		st := p.Counters()
		gets += st[provider.Gets]
		batches += st[provider.GetBatches]
	}
	return gets, batches
}

// firstReplica names the provider index of one chunk's first placed
// replica, and the chunk's key there.
func firstReplica(t *testing.T, c *cluster.Cluster, blob *core.Blob, v uint64, idx int) (int, chunk.Key) {
	t.Helper()
	locs, err := blob.Locations(v, uint64(idx)*blob.ChunkSize(), blob.ChunkSize())
	if err != nil || len(locs) != 1 {
		t.Fatalf("locations of chunk %d: %v, %v", idx, locs, err)
	}
	p := slices.Index(c.ProviderAddrs(), locs[0].Providers[0])
	keys := c.Providers[p].Store().Keys()
	k := slices.IndexFunc(keys, func(k chunk.Key) bool { return k.Blob == blob.ID() && k.Index == uint64(idx) })
	if p < 0 || k < 0 {
		t.Fatalf("chunk %d: no copy on its first replica", idx)
	}
	return p, keys[k]
}

// TestBatchedReadRPCBound: a 256-chunk read over four providers fetches
// its whole chunks with one getchunks per replica set and 1 MiB of
// chunks, at most 16 chunk RPCs, and not one provider.get.
func TestBatchedReadRPCBound(t *testing.T) {
	c := startCluster(t, cluster.Config{UseTCP: true, DataProviders: 4})
	blob, v, data := writeBlob(t, c, 64<<10, 256)
	gets0, batches0 := providerGets(c)
	cli := freshRead(t, c, blob, v, data)
	gets, batches := providerGets(c)
	rpcs := cli.IOStats().ChunkGetRPCs
	if rpcs > 16 {
		t.Errorf("256-chunk read issued %d chunk RPCs, bound 16", rpcs)
	}
	if gets-gets0 != 256 || int64(batches-batches0) != rpcs {
		t.Errorf("providers served %d chunks in %d getchunks for %d chunk RPCs: some went through provider.get",
			gets-gets0, batches-batches0, rpcs)
	}
}

// TestBatchedReadFallsBackPerChunk: a chunk its batch does not deliver —
// missing from the first replica, or quarantined there — is read on its
// own from the next replica, and the read returns the blob's bytes.
func TestBatchedReadFallsBackPerChunk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(c *cluster.Cluster, p int, key chunk.Key) error
	}{
		{"missing", func(c *cluster.Cluster, p int, key chunk.Key) error { return c.Providers[p].Store().Delete(key) }},
		{"quarantined", func(c *cluster.Cluster, p int, key chunk.Key) error { return c.CorruptChunk(p, key, 100) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startCluster(t, cluster.Config{DataProviders: 4})
			blob, v, data := writeBlob(t, c, 4096, 16)
			p, key := firstReplica(t, c, blob, v, 5)
			if err := tc.spoil(c, p, key); err != nil {
				t.Fatal(err)
			}
			cli := freshRead(t, c, blob, v, data)
			st := cli.IOStats()
			// Four replica sets, one getchunks each; then the broken
			// chunk's own get at its second replica, healthiest-first
			// (never observed), unless its first replica ties it and is
			// tried again first.
			if st.ChunkGetRPCs < 4+1 || st.ChunkGetRPCs > 4+2 {
				t.Errorf("chunk RPCs = %d, want 4 batches + 1 or 2 for the fallback", st.ChunkGetRPCs)
			}
			if quarantined := tc.name == "quarantined"; quarantined != (st.ChunkCorruptReads > 0) {
				t.Errorf("corrupt replica reads = %d", st.ChunkCorruptReads)
			}
		})
	}
}
