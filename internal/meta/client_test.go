package meta_test

import (
	"context"
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
		s := meta.NewServer(network, fmt.Sprintf("mp%d", i))
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

func TestGetMissingNodeErrors(t *testing.T) {
	rig := startMetaRig(t, 2, 1, 0)
	_, err := rig.client.GetNode(context.Background(), meta.NodeKey{Blob: 99, Version: 1, Off: 0, Size: 1})
	if err == nil {
		t.Fatal("get of absent node succeeded")
	}
}
