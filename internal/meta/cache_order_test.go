package meta

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rpc"
)

// slowStore delays batched reads: the knob that forces which of two
// metadata providers answers a descent round first.
type slowStore struct {
	*MemStore
	delay atomic.Int64
}

func (s *slowStore) GetNodes(ctx context.Context, keys []NodeKey) ([]*Node, error) {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.MemStore.GetNodes(ctx, keys)
}

// What a client caches must not depend on which provider's reply lands
// first: the same two-server descent, run with the reply order forced both
// ways through a cache far smaller than the tree, must leave identical LRU
// contents (in order) and fetch the same number of nodes.
func TestGetNodesCacheIndependentOfReplyOrder(t *testing.T) {
	network := rpc.NewSimNetwork(nil)
	stores := []*slowStore{{MemStore: NewMemStore()}, {MemStore: NewMemStore()}}
	addrs := []string{"mp0", "mp1"}
	for i, st := range stores {
		srv := NewServer(network, addrs[i], st)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
	}
	newClient := func(cacheNodes int) *Client {
		cli := rpc.NewClient(network, 5*time.Second)
		t.Cleanup(cli.Close)
		return NewClient(cli, addrs, 1, cacheNodes)
	}

	const blob, chunks = 7, 256
	leaves := make([]ChunkRef, chunks)
	for i := range leaves {
		leaves[i] = ChunkRef{Providers: []string{"dp"}, Key: chunk.Key{Blob: blob, Version: 1, Index: uint64(i)}, Length: 100}
	}
	writer := newClient(0)
	nodes, _, err := Weave(writer, WeaveInput{Blob: blob, Version: 1, EndChunk: chunks, SizeChunks: chunks, Leaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}

	descend := func(slow int) (lru []NodeKey, fetched int64) {
		for i, st := range stores {
			st.delay.Store(0)
			if i == slow {
				st.delay.Store(int64(3 * time.Millisecond))
			}
		}
		c := newClient(32) // the 511-node tree overflows it every round
		for _, r := range [][2]uint64{{0, chunks}, {64, 192}, {0, 16}} {
			if _, err := CollectLeaves(c, blob, 1, chunks, r[0], r[1]); err != nil {
				t.Fatalf("descent [%d,%d) with mp%d slow: %v", r[0], r[1], slow, err)
			}
		}
		for el := c.cache.order.Front(); el != nil; el = el.Next() {
			lru = append(lru, el.Value.(*cacheEnt).key)
		}
		return lru, c.RPCStats().NodesFetched
	}
	lru0, fetched0 := descend(0)
	lru1, fetched1 := descend(1)
	if len(lru0) != 32 {
		t.Fatalf("cache holds %d nodes, want it full (32): the test must evict", len(lru0))
	}
	if !reflect.DeepEqual(lru0, lru1) {
		t.Errorf("cache contents depend on reply order:\n mp0 slow: %v\n mp1 slow: %v", lru0, lru1)
	}
	if fetched0 != fetched1 {
		t.Errorf("NodesFetched depends on reply order: %d with mp0 slow, %d with mp1 slow", fetched0, fetched1)
	}
}
