package meta_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/rpc"
)

// newReaderClient builds a fresh metadata client over the rig's providers
// — with its own empty cache — so reads start cold no matter what the
// rig's writer client has cached.
func newReaderClient(t *testing.T, rig *metaRig, replication, cacheNodes int) *meta.Client {
	t.Helper()
	cli := rpc.NewClient(rig.network, 5*time.Second)
	t.Cleanup(cli.Close)
	return meta.NewClient(cli, rig.addrs, replication, cacheNodes)
}

// refWrite is one write of a generated history.
type refWrite struct {
	version    uint64
	start, end uint64
	sizeChunks uint64
}

// weaveRefHistory weaves a sequentially published history into store.
func weaveRefHistory(t *testing.T, store interface {
	meta.Store
	PutNodes([]*meta.Node) error
}, blob uint64, history []refWrite) {
	t.Helper()
	pubVersion, pubSize := uint64(0), uint64(0)
	for _, w := range history {
		leaves := make([]meta.ChunkRef, w.end-w.start)
		for i := range leaves {
			leaves[i] = meta.ChunkRef{
				Providers: []string{"dp"},
				Key:       chunk.Key{Blob: blob, Version: w.version, Index: w.start + uint64(i)},
				Length:    100,
			}
		}
		nodes, _, err := meta.Weave(store, meta.WeaveInput{
			Blob: blob, Version: w.version,
			StartChunk: w.start, EndChunk: w.end, SizeChunks: w.sizeChunks,
			Leaves:     leaves,
			PubVersion: pubVersion, PubSizeChunks: pubSize,
		})
		if err != nil {
			t.Fatalf("weave v%d: %v", w.version, err)
		}
		if err := store.PutNodes(nodes); err != nil {
			t.Fatalf("put v%d: %v", w.version, err)
		}
		pubVersion, pubSize = w.version, w.sizeChunks
	}
}

// randomRefHistory generates a mixed append/overwrite/sparse history.
func randomRefHistory(rng *rand.Rand, nWrites int) []refWrite {
	history := make([]refWrite, nWrites)
	var curEnd uint64
	for i := range history {
		var start, end uint64
		switch rng.Intn(3) {
		case 0: // append
			start = curEnd
			end = start + 1 + uint64(rng.Intn(8))
		case 1: // overwrite
			if curEnd > 0 {
				start = uint64(rng.Intn(int(curEnd)))
			}
			end = start + 1 + uint64(rng.Intn(6))
		default: // sparse, possibly past the end
			start = uint64(rng.Intn(int(curEnd) + 5))
			end = start + 1 + uint64(rng.Intn(9))
		}
		if end > curEnd {
			curEnd = end
		}
		history[i] = refWrite{version: uint64(i + 1), start: start, end: end, sizeChunks: curEnd}
	}
	return history
}

// referenceCollect is the node-at-a-time descent the batched CollectLeaves
// replaced: one GetNode per tree node, recursive, no batching, no
// speculation. It is the semantic oracle the batched path must match.
func referenceCollect(store meta.Store, blob, version, sizeChunks, a, b uint64) ([]meta.ChunkRef, error) {
	out := make([]meta.ChunkRef, b-a)
	var walk func(ver, off, size uint64) error
	walk = func(ver, off, size uint64) error {
		if ver == meta.ZeroVersion {
			return nil // zero subtree; out is pre-zeroed
		}
		node, err := store.GetNode(context.Background(), meta.NodeKey{Blob: blob, Version: ver, Off: off, Size: size})
		if err != nil {
			return err
		}
		if node.Leaf {
			if size != 1 {
				return fmt.Errorf("leaf with span %d", size)
			}
			out[off-a] = node.Chunk
			return nil
		}
		half := size / 2
		if off < b && a < off+half {
			if err := walk(node.LeftVer, off, half); err != nil {
				return err
			}
		}
		if off+half < b && a < off+size {
			return walk(node.RightVer, off+half, half)
		}
		return nil
	}
	if err := walk(version, 0, meta.NextPow2(sizeChunks)); err != nil {
		return nil, err
	}
	return out, nil
}

func refsEqual(x, y []meta.ChunkRef) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].Key != y[i].Key || x[i].Length != y[i].Length || x[i].IsZero() != y[i].IsZero() {
			return false
		}
	}
	return true
}

// TestDescentEquivalenceRandomized weaves randomized multi-version write
// histories through the wire and reads every version — full range and
// random sub-ranges — through both the batched level-order descent and
// the node-at-a-time reference walk, asserting identical leaves.
func TestDescentEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		repl := 1 + rng.Intn(2)
		rig := startMetaRig(t, 3, repl, 0)
		blob := uint64(500 + trial)
		history := randomRefHistory(rng, 1+rng.Intn(10))
		weaveRefHistory(t, rig.client, blob, history)

		reader := newReaderClient(t, rig, repl, 4096)
		for _, w := range history {
			size := w.sizeChunks
			got, err := meta.CollectLeaves(reader, blob, w.version, size, 0, size)
			if err != nil {
				t.Fatalf("trial %d: batched collect v%d: %v", trial, w.version, err)
			}
			want, err := referenceCollect(rig.client, blob, w.version, size, 0, size)
			if err != nil {
				t.Fatalf("trial %d: reference collect v%d: %v", trial, w.version, err)
			}
			if !refsEqual(got, want) {
				t.Fatalf("trial %d: v%d full-range mismatch\n got %v\nwant %v", trial, w.version, got, want)
			}
			// Random sub-ranges.
			for k := 0; k < 3; k++ {
				a := uint64(rng.Intn(int(size)))
				b := a + 1 + uint64(rng.Intn(int(size-a)))
				got, err := meta.CollectLeaves(reader, blob, w.version, size, a, b)
				if err != nil {
					t.Fatalf("trial %d: batched collect v%d [%d,%d): %v", trial, w.version, a, b, err)
				}
				want, err := referenceCollect(rig.client, blob, w.version, size, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !refsEqual(got, want) {
					t.Fatalf("trial %d: v%d [%d,%d) mismatch", trial, w.version, a, b)
				}
			}
		}
	}
}

// TestDescentCacheAccounting checks the LRU bookkeeping around the
// batched descent: a cold read records misses and no hits, a warm re-read
// is served entirely from the cache — hits recorded, zero new RPCs.
func TestDescentCacheAccounting(t *testing.T) {
	rig := startMetaRig(t, 4, 1, 0)
	const blob, size = 61, 64
	weaveRefHistory(t, rig.client, blob, []refWrite{
		{version: 1, start: 0, end: size, sizeChunks: size},
		{version: 2, start: 10, end: 30, sizeChunks: size},
	})

	reader := newReaderClient(t, rig, 1, 8192)
	if _, err := meta.CollectLeaves(reader, blob, 2, size, 0, size); err != nil {
		t.Fatal(err)
	}
	cold := reader.RPCStats()
	if cold.CacheHits != 0 {
		t.Errorf("cold read recorded %d cache hits", cold.CacheHits)
	}
	if cold.CacheMisses == 0 {
		t.Error("cold read recorded no cache misses")
	}
	if cold.GetNodesRPCs == 0 {
		t.Error("cold read issued no batched RPCs")
	}

	if _, err := meta.CollectLeaves(reader, blob, 2, size, 0, size); err != nil {
		t.Fatal(err)
	}
	warm := reader.RPCStats()
	if warm.GetNodesRPCs != cold.GetNodesRPCs || warm.GetRPCs != cold.GetRPCs {
		t.Errorf("warm re-read issued RPCs: getnodes %d->%d, get %d->%d",
			cold.GetNodesRPCs, warm.GetNodesRPCs, cold.GetRPCs, warm.GetRPCs)
	}
	if warm.CacheHits == 0 {
		t.Error("warm re-read recorded no cache hits")
	}
}

// TestDescentProviderFailover downs one metadata provider and re-reads:
// with replication 2 the batched descent must fail the dead owner's share
// of each frontier over to the surviving replica and still produce leaves
// identical to the reference walk.
func TestDescentProviderFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rig := startMetaRig(t, 4, 2, 0)
	const blob = 91
	history := randomRefHistory(rng, 8)
	weaveRefHistory(t, rig.client, blob, history)

	last := history[len(history)-1]
	want, err := referenceCollect(rig.client, blob, last.version, last.sizeChunks, 0, last.sizeChunks)
	if err != nil {
		t.Fatal(err)
	}

	rig.fabric.SetDown(rig.addrs[0], true)
	reader := newReaderClient(t, rig, 2, 0)
	got, err := meta.CollectLeaves(reader, blob, last.version, last.sizeChunks, 0, last.sizeChunks)
	if err != nil {
		t.Fatalf("batched collect with a provider down: %v", err)
	}
	if !refsEqual(got, want) {
		t.Fatal("leaves diverged after provider failover")
	}
}

// treeDepth is the number of levels of a segment tree over sizeChunks
// chunks (root..leaf inclusive).
func treeDepth(sizeChunks uint64) int {
	d := 1
	for s := meta.NextPow2(sizeChunks); s > 1; s /= 2 {
		d++
	}
	return d
}

// TestDescentRPCBound asserts the acceptance bound of the batching
// refactor: a cold-cache read of a 256-chunk range against M metadata
// providers issues at most M × tree-depth meta.getnodes RPCs, for both a
// single-writer history (where speculation collapses it to one round)
// and a fragmented multi-writer one.
func TestDescentRPCBound(t *testing.T) {
	const m, size = 4, 256
	histories := map[string][]refWrite{
		"single-writer": {{version: 1, start: 0, end: size, sizeChunks: size}},
		"fragmented": {
			{version: 1, start: 0, end: size, sizeChunks: size},
			{version: 2, start: 0, end: 64, sizeChunks: size},
			{version: 3, start: 200, end: 256, sizeChunks: size},
			{version: 4, start: 97, end: 99, sizeChunks: size},
			{version: 5, start: 31, end: 160, sizeChunks: size},
		},
	}
	for name, history := range histories {
		t.Run(name, func(t *testing.T) {
			rig := startMetaRig(t, m, 1, 0)
			const blob = 11
			weaveRefHistory(t, rig.client, blob, history)
			reader := newReaderClient(t, rig, 1, 1<<16)
			last := history[len(history)-1]
			refs, err := meta.CollectLeaves(reader, blob, last.version, size, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) != size {
				t.Fatalf("got %d refs", len(refs))
			}
			stats := reader.RPCStats()
			bound := int64(m * treeDepth(size))
			if stats.GetNodesRPCs > bound {
				t.Errorf("cold 256-chunk read issued %d meta.getnodes RPCs, bound %d", stats.GetNodesRPCs, bound)
			}
			if stats.GetRPCs != 0 {
				t.Errorf("cold read fell back to %d GetNode point lookups", stats.GetRPCs)
			}
			t.Logf("%s: %d getnodes RPCs (bound %d), %d nodes fetched",
				name, stats.GetNodesRPCs, bound, stats.NodesFetched)
		})
	}
}

// TestPutNodesRPCBound asserts the write-side acceptance bound: a weave
// of W nodes at replication R issues at most min(W, M) × R meta.put RPCs.
func TestPutNodesRPCBound(t *testing.T) {
	const m, repl, size = 4, 2, 256
	rig := startMetaRig(t, m, repl, 0)
	const blob = 13
	leaves := make([]meta.ChunkRef, size)
	for i := range leaves {
		leaves[i] = meta.ChunkRef{
			Providers: []string{"dp"},
			Key:       chunk.Key{Blob: blob, Version: 1, Index: uint64(i)},
			Length:    100,
		}
	}
	nodes, _, err := meta.Weave(rig.client, meta.WeaveInput{
		Blob: blob, Version: 1, StartChunk: 0, EndChunk: size,
		SizeChunks: size, Leaves: leaves,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.client.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	stats := rig.client.RPCStats()
	w := int64(len(nodes))
	bound := w
	if int64(m) < bound {
		bound = int64(m)
	}
	bound *= repl
	if stats.PutRPCs > bound {
		t.Errorf("weave of %d nodes at replication %d issued %d meta.put RPCs, bound %d",
			w, repl, stats.PutRPCs, bound)
	}
	if stats.NodesStored < w*repl {
		t.Errorf("stored %d node replicas, want >= %d", stats.NodesStored, w*repl)
	}
	t.Logf("%d nodes, repl %d: %d put RPCs (bound %d)", w, repl, stats.PutRPCs, bound)
}
