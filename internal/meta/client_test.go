package meta_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/rpc"
)

type metaRig struct {
	network *rpc.SimNetwork
	fabric  *netsim.Fabric
	servers []*meta.Server
	addrs   []string
	client  *meta.Client
}

func startMetaRig(t *testing.T, n, replication, cacheNodes int) *metaRig {
	t.Helper()
	fabric := netsim.NewFabric(netsim.Config{})
	network := rpc.NewSimNetwork(fabric)
	rig := &metaRig{network: network, fabric: fabric}
	for i := 0; i < n; i++ {
		s := meta.NewServer(network, fmt.Sprintf("mp%d", i), meta.NewMemStore())
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		rig.servers = append(rig.servers, s)
		rig.addrs = append(rig.addrs, s.Addr())
	}
	cli := rpc.NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)
	rig.client = meta.NewClient(cli, rig.addrs, replication, cacheNodes)
	return rig
}

func someNodes(blob uint64, n int) []*meta.Node {
	out := make([]*meta.Node, n)
	for i := range out {
		out[i] = &meta.Node{
			Key:  meta.NodeKey{Blob: blob, Version: 1, Off: uint64(i), Size: 1},
			Leaf: true,
			Chunk: meta.ChunkRef{
				Providers: []string{"dp0"},
				Key:       chunk.Key{Blob: blob, Version: 1, Index: uint64(i)},
				Length:    42,
			},
		}
	}
	return out
}

func TestPutGetAcrossDHT(t *testing.T) {
	rig := startMetaRig(t, 4, 1, 0)
	nodes := someNodes(7, 64)
	if err := rig.client.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		got, err := rig.client.GetNode(context.Background(), n.Key)
		if err != nil {
			t.Fatalf("get %s: %v", n.Key, err)
		}
		if got.Chunk.Length != 42 {
			t.Errorf("node %s corrupted", n.Key)
		}
	}
	// Nodes must actually be spread over the servers, not piled on one.
	spread := 0
	for _, s := range rig.servers {
		if s.NodeCount() > 0 {
			spread++
		}
	}
	if spread < 3 {
		t.Errorf("nodes landed on only %d of 4 metadata providers", spread)
	}
}

func TestMetadataReplicationSurvivesProviderLoss(t *testing.T) {
	rig := startMetaRig(t, 4, 3, 0)
	nodes := someNodes(9, 32)
	if err := rig.client.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	// Kill one metadata provider; every node still has replicas.
	rig.fabric.SetDown(rig.addrs[0], true)
	for _, n := range nodes {
		if _, err := rig.client.GetNode(context.Background(), n.Key); err != nil {
			t.Fatalf("get %s after provider loss: %v", n.Key, err)
		}
	}
	// Kill a second one.
	rig.fabric.SetDown(rig.addrs[1], true)
	for _, n := range nodes {
		if _, err := rig.client.GetNode(context.Background(), n.Key); err != nil {
			t.Fatalf("get %s after two losses: %v", n.Key, err)
		}
	}
}

func TestPutFailsWhenAllReplicasDown(t *testing.T) {
	rig := startMetaRig(t, 2, 2, 0)
	rig.fabric.SetDown(rig.addrs[0], true)
	rig.fabric.SetDown(rig.addrs[1], true)
	err := rig.client.PutNodes(someNodes(3, 4))
	if err == nil {
		t.Fatal("put succeeded with the whole metadata plane down")
	}
}

func TestPutToleratesPartialReplicaLoss(t *testing.T) {
	rig := startMetaRig(t, 3, 3, 0)
	rig.fabric.SetDown(rig.addrs[2], true)
	if err := rig.client.PutNodes(someNodes(4, 16)); err != nil {
		t.Fatalf("put with one of three replicas down: %v", err)
	}
}

func TestClientCacheServesAfterTotalOutage(t *testing.T) {
	rig := startMetaRig(t, 2, 1, 1024)
	nodes := someNodes(5, 8)
	if err := rig.client.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	// Warm the cache.
	for _, n := range nodes {
		if _, err := rig.client.GetNode(context.Background(), n.Key); err != nil {
			t.Fatal(err)
		}
	}
	// Nodes are immutable, so even with every provider down the cache may
	// legitimately keep serving.
	rig.fabric.SetDown(rig.addrs[0], true)
	rig.fabric.SetDown(rig.addrs[1], true)
	for _, n := range nodes {
		if _, err := rig.client.GetNode(context.Background(), n.Key); err != nil {
			t.Fatalf("cached get during outage: %v", err)
		}
	}
	hits, _ := rig.client.CacheStats()
	if hits == 0 {
		t.Error("cache recorded no hits")
	}
}

// getNodeRPCs runs GetNode and reports how many one-key getnodes calls
// it issued (RPCStats().GetRPCs counts one per member asked).
func getNodeRPCs(rig *metaRig, key meta.NodeKey) (*meta.Node, int64, error) {
	before := rig.client.RPCStats().GetRPCs
	n, err := rig.client.GetNode(context.Background(), key)
	return n, rig.client.RPCStats().GetRPCs - before, err
}

// ownerAndOther returns the index of key's owner in a two-member,
// replication-1 rig and the index of the other member.
func ownerAndOther(t *testing.T, rig *metaRig, key meta.NodeKey) (int, int) {
	t.Helper()
	owners := rig.client.Replicas(key)
	if len(owners) != 1 {
		t.Fatalf("owners = %v, want one", owners)
	}
	if owners[0] == rig.addrs[0] {
		return 0, 1
	}
	return 1, 0
}

// GetNode asks the owner first and, on a miss, the rest of the ring: a
// node on its owner costs one lookup, a node only a non-owner holds (a
// client configured with a smaller replication degree than the
// deployment's) is still found, one lookup per member asked.
func TestGetNodeFindsOwnerThenRing(t *testing.T) {
	rig := startMetaRig(t, 2, 1, 0)
	nodes := someNodes(11, 2)

	onOwner := nodes[0]
	if err := rig.client.PutNodes([]*meta.Node{onOwner}); err != nil {
		t.Fatal(err)
	}
	got, rpcs, err := getNodeRPCs(rig, onOwner.Key)
	if err != nil || got.Key != onOwner.Key || got.Chunk.Length != 42 {
		t.Fatalf("get of a node on its owner = %+v, %v", got, err)
	}
	if rpcs != 1 {
		t.Errorf("node on its owner took %d lookups, want 1", rpcs)
	}

	offOwner := nodes[1]
	_, other := ownerAndOther(t, rig, offOwner.Key)
	if err := rig.servers[other].Store().PutNodes([]*meta.Node{offOwner}); err != nil {
		t.Fatal(err)
	}
	got, rpcs, err = getNodeRPCs(rig, offOwner.Key)
	if err != nil || got.Key != offOwner.Key || got.Chunk.Length != 42 {
		t.Fatalf("get of a node only a non-owner holds = %+v, %v", got, err)
	}
	if rpcs != 2 {
		t.Errorf("node on a non-owner took %d lookups, want 2 (owner, then the rest of the ring)", rpcs)
	}
}

// Absence is definitive only when every ring member answered: a node
// absent everywhere is ErrNodeNotFound, but with one member down the
// error is the transport failure, never ErrNodeNotFound (the GC liveness
// walk would otherwise prune live data).
func TestGetMissingNodeErrors(t *testing.T) {
	rig := startMetaRig(t, 2, 1, 0)
	key := meta.NodeKey{Blob: 99, Version: 1, Off: 0, Size: 1}

	_, rpcs, err := getNodeRPCs(rig, key)
	if !errors.Is(err, meta.ErrNodeNotFound) {
		t.Fatalf("get of a node absent everywhere: err = %v, want ErrNodeNotFound", err)
	}
	if rpcs != 2 {
		t.Errorf("absent node took %d lookups, want 2 (every member)", rpcs)
	}

	_, other := ownerAndOther(t, rig, key)
	rig.fabric.SetDown(rig.addrs[other], true)
	_, rpcs, err = getNodeRPCs(rig, key)
	if err == nil || errors.Is(err, meta.ErrNodeNotFound) {
		t.Fatalf("get of an absent node with a member down: err = %v, want a transport error", err)
	}
	if rpcs != 2 {
		t.Errorf("absent node with a member down took %d lookups, want 2", rpcs)
	}
}
