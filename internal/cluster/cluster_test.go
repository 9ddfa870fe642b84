package cluster_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/netsim"
)

func TestDefaultsApplied(t *testing.T) {
	c, err := cluster.Start(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.ProviderAddrs()) != 4 {
		t.Errorf("providers = %d, want default 4", len(c.ProviderAddrs()))
	}
	if len(c.MetaAddrs()) != 2 {
		t.Errorf("meta providers = %d, want default 2", len(c.MetaAddrs()))
	}
	if c.Fabric == nil {
		t.Error("default fabric missing (fault injection would be a no-op)")
	}
	if c.VMAddr() == "" || c.PMAddr() == "" {
		t.Error("manager addresses empty")
	}
}

func TestKillReviveCycle(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.ProviderAddrs()[1]
	c.KillProvider(1)
	if !c.Fabric.IsDown(addr) {
		t.Fatal("provider not down after kill")
	}
	c.ReviveProvider(1)
	if c.Fabric.IsDown(addr) {
		t.Fatal("provider down after revive")
	}
	// Out-of-range indices are ignored.
	c.KillProvider(99)
	c.ReviveProvider(-1)
}

func TestCustomStoreFactory(t *testing.T) {
	dir := t.TempDir()
	var made int
	c, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		StoreFactory: func(i int) (chunk.Store, error) {
			made++
			return chunk.NewDiskStore(dir+"/"+string(rune('a'+i)), false)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if made != 2 {
		t.Errorf("factory called %d times", made)
	}
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Write(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	// Chunks must be on disk in both provider stores.
	total := 0
	for _, p := range c.Providers {
		total += p.Store().Len()
	}
	if total != 8 { // 4 chunks x 2 replicas
		t.Errorf("stored chunks = %d, want 8", total)
	}
}

func TestShapedFabricAffectsThroughput(t *testing.T) {
	slow, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		Fabric:        netsim.NewFabric(netsim.Config{BandwidthBps: 2e6}), // 2 MB/s
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	cli, err := slow.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := blob.Write(make([]byte, 512<<10), 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 512 KiB at 2 MB/s through the client NIC >= ~250ms.
	if elapsed < 200*time.Millisecond {
		t.Errorf("write of 512KiB at 2MB/s took only %v; shaping not applied", elapsed)
	}
}

func TestNamedClients(t *testing.T) {
	c, err := cluster.Start(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NewClient(cluster.ClientOptions{Name: "alpha"}); err != nil {
		t.Fatal(err)
	}
	// Auto-named clients must not collide with each other.
	for i := 0; i < 3; i++ {
		if _, err := c.NewClient(cluster.ClientOptions{}); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// Over TCP every role listens on 127.0.0.1:0, so a provider must heartbeat
// the address it BOUND: heartbeating the configured ":0" registered a
// phantom member next to the real one, placement handed chunks to it, and
// the 11th 4 MiB replication-2 write failed with "no provider accepted
// the chunk".
func TestTCPProvidersHeartbeatBoundAddress(t *testing.T) {
	const providers = 4
	c, err := cluster.Start(cluster.Config{DataProviders: providers, UseTCP: true, HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	extent := make([]byte, 4<<20)
	for i := 0; i < 16; i++ {
		if _, err := blob.Write(extent, uint64(i)*uint64(len(extent))); err != nil {
			t.Fatalf("4 MiB write %d of 16: %v", i+1, err)
		}
	}
	members := c.PM.Manager().Report()
	if len(members) != providers {
		t.Fatalf("pm.report lists %d members, want exactly the %d data providers: %+v", len(members), providers, members)
	}
	for _, m := range members {
		if !slices.Contains(c.ProviderAddrs(), m.Addr) {
			t.Errorf("pm.report member %s is no data provider's bound address", m.Addr)
		}
	}
}
