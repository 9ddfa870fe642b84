package pmanager

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/rpc"
)

func managerAt(t *testing.T, strategy string, now *time.Time) *Manager {
	t.Helper()
	m, err := NewManager(strategy, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return *now }
	return m
}

// beat is shorthand for a capacity-less heartbeat.
func beat(m *Manager, addr string, chunks, bytes uint64) {
	m.Heartbeat(&provider.HeartbeatReq{Addr: addr, Chunks: chunks, Bytes: bytes})
}

func TestUnknownStrategyRejected(t *testing.T) {
	if _, err := NewManager("mystery", 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	m, err := NewManager("", 0)
	if err != nil || m.strategy != StrategyRoundRobin {
		t.Fatalf("default strategy: %v %q", err, m.strategy)
	}
}

func TestAllocateNoProviders(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(t, StrategyRoundRobin, &now)
	if _, err := m.Allocate(3, 1, nil); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("err = %v, want ErrNoProviders", err)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(t, StrategyRoundRobin, &now)
	for _, a := range []string{"p1", "p2", "p3"} {
		m.Register(a)
	}
	sets, err := m.Allocate(6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range sets {
		if len(s) != 1 {
			t.Fatalf("set = %v", s)
		}
		counts[s[0]]++
	}
	for p, c := range counts {
		if c != 2 {
			t.Errorf("%s got %d chunks, want 2", p, c)
		}
	}
}

func TestReplicationDistinctAndClamped(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, strat := range []string{StrategyRoundRobin, StrategyRandom, StrategyLeastLoaded} {
		m := managerAt(t, strat, &now)
		for _, a := range []string{"p1", "p2", "p3"} {
			m.Register(a)
		}
		sets, err := m.Allocate(10, 5, nil) // ask for more replicas than providers
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for _, s := range sets {
			if len(s) != 3 {
				t.Fatalf("%s: replicas = %d, want clamp to 3", strat, len(s))
			}
			seen := map[string]bool{}
			for _, a := range s {
				if seen[a] {
					t.Fatalf("%s: duplicate replica in %v", strat, s)
				}
				seen[a] = true
			}
		}
	}
}

func TestLeastLoadedPrefersEmpty(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(t, StrategyLeastLoaded, &now)
	beat(m, "busy", 1000, 1<<30)
	beat(m, "idle", 0, 0)
	sets, err := m.Allocate(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		if s[0] != "idle" {
			t.Errorf("placement %v, want idle", s)
		}
	}
}

func TestHeartbeatTimeoutRemovesProvider(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(t, StrategyRoundRobin, &now)
	m.Register("p1")
	m.Register("p2")
	now = now.Add(500 * time.Millisecond)
	beat(m, "p2", 0, 0) // p2 stays fresh
	now = now.Add(700 * time.Millisecond)
	provs := m.Providers()
	if len(provs) != 1 || provs[0] != "p2" {
		t.Fatalf("live providers = %v, want [p2]", provs)
	}
	// p1 heartbeats again: auto-revived.
	beat(m, "p1", 0, 0)
	if got := len(m.Providers()); got != 2 {
		t.Fatalf("live providers after revival = %d", got)
	}
}

func TestServerEndToEndWithProviderHeartbeats(t *testing.T) {
	network := rpc.NewSimNetwork(nil)
	pm, err := NewServer(network, "pm", StrategyRoundRobin, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Start(); err != nil {
		t.Fatal(err)
	}
	defer pm.Close()

	cli := rpc.NewClient(network, 5*time.Second)
	defer cli.Close()

	prov := provider.NewServer(network, "prov1", chunk.NewMemStore())
	if err := prov.Start(); err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	if err := cli.Call("pm", MethodRegister, &RegisterReq{Addr: "prov1"}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	prov.StartHeartbeats(cli, "pm", 50*time.Millisecond)

	var alloc AllocateResp
	if err := cli.Call("pm", MethodAllocate, &AllocateReq{NumChunks: 2, Replication: 1}, &alloc); err != nil {
		t.Fatal(err)
	}
	if len(alloc.Sets) != 2 || alloc.Sets[0][0] != "prov1" {
		t.Fatalf("alloc = %+v", alloc)
	}

	// Store and fetch a chunk through the allocated provider.
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	if err := provider.PutChunk(context.Background(), cli, "prov1", key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	data, from, err := provider.GetChunkReplicas(context.Background(), cli, []string{"ghost", "prov1"}, key)
	if err != nil || string(data) != "data" || from != "prov1" {
		t.Fatalf("replica get = %q from %q, %v", data, from, err)
	}
	stats, err := provider.Stats(context.Background(), cli, "prov1")
	if err != nil || stats.Chunks != 1 || stats.Puts != 1 {
		t.Fatalf("stats = %+v, %v", stats, err)
	}

	// Heartbeats keep the provider alive past the timeout window.
	time.Sleep(700 * time.Millisecond)
	var provs ProvidersResp
	if err := cli.Call("pm", MethodProviders, &Ack{}, &provs); err != nil {
		t.Fatal(err)
	}
	if len(provs.Addrs) != 1 {
		t.Fatalf("providers = %v, heartbeats should keep prov1 alive", provs.Addrs)
	}
	// Stop the provider: it must age out.
	prov.Close()
	time.Sleep(700 * time.Millisecond)
	if err := cli.Call("pm", MethodProviders, &Ack{}, &provs); err != nil {
		t.Fatal(err)
	}
	if len(provs.Addrs) != 0 {
		t.Fatalf("providers after provider death = %v", provs.Addrs)
	}
}

func TestAllocateExclusion(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(t, StrategyRoundRobin, &now)
	for _, a := range []string{"dp0", "dp1", "dp2", "dp3"} {
		m.Register(a)
	}
	// Excluding two providers must keep every replica on the other two.
	sets, err := m.Allocate(8, 2, []string{"dp0", "dp1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		for _, a := range set {
			if a == "dp0" || a == "dp1" {
				t.Fatalf("excluded provider %s allocated (set %v)", a, set)
			}
		}
	}
	// Excluding everyone falls back to the full live set: a retry against
	// possibly-recovered providers beats refusing the write.
	sets, err = m.Allocate(2, 1, []string{"dp0", "dp1", "dp2", "dp3"})
	if err != nil || len(sets) != 2 {
		t.Fatalf("full exclusion: sets=%v err=%v", sets, err)
	}
}
