package pmanager

import (
	"context"
	"encoding/hex"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/wire"
)

func managerAt(now *time.Time) *Manager {
	m := NewManager(time.Second)
	m.now = func() time.Time { return *now }
	return m
}

// beat is shorthand for a capacity-less heartbeat.
func beat(m *Manager, addr string, chunks, bytes uint64) {
	m.Heartbeat(&provider.HeartbeatReq{Addr: addr, Chunks: chunks, Bytes: bytes})
}

func TestAllocateNoProviders(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(&now)
	if _, err := m.Allocate(3, 1, nil); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("err = %v, want ErrNoProviders", err)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(&now)
	for _, a := range []string{"p1", "p2", "p3"} {
		beat(m, a, 0, 0)
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
	m := managerAt(&now)
	for _, a := range []string{"p1", "p2", "p3"} {
		beat(m, a, 0, 0)
	}
	sets, err := m.Allocate(10, 5, nil) // ask for more replicas than providers
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		if len(s) != 3 {
			t.Fatalf("replicas = %d, want clamp to 3", len(s))
		}
		seen := map[string]bool{}
		for _, a := range s {
			if seen[a] {
				t.Fatalf("duplicate replica in %v", s)
			}
			seen[a] = true
		}
	}
}

// TestAllocateSkipsNearlyFull: a provider above the capacity watermark
// gets no placements while another can take them, and still gets them
// when every provider is that full.
func TestAllocateSkipsNearlyFull(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(&now)
	m.Heartbeat(&provider.HeartbeatReq{Addr: "full", Bytes: 96, CapBytes: 100})
	beat(m, "roomy", 0, 0)
	sets, err := m.Allocate(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		if len(set) != 1 || set[0] != "roomy" {
			t.Fatalf("set %v, want [roomy] alone", set)
		}
	}
	m.Heartbeat(&provider.HeartbeatReq{Addr: "roomy", Bytes: 99, CapBytes: 100})
	if sets, err = m.Allocate(1, 2, nil); err != nil || len(sets[0]) != 2 {
		t.Fatalf("every provider full: sets %v, err %v; want both", sets, err)
	}
}

func TestHeartbeatTimeoutRemovesProvider(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(&now)
	beat(m, "p1", 0, 0)
	beat(m, "p2", 0, 0)
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
	pm := NewServer(network, "pm", 500*time.Millisecond)
	if err := pm.Start(); err != nil {
		t.Fatal(err)
	}
	defer pm.Close()

	cli := rpc.NewClient(network, 5*time.Second)
	defer cli.Close()

	prov, err := provider.NewServer(network, "prov1", chunk.NewMemStore(), provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.Start(); err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	// The first beat is sent before StartHeartbeats returns, so the
	// provider is placeable at once.
	if err := prov.StartHeartbeats(cli, "pm", 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var alloc AllocateResp
	if err := cli.Call("pm", MethodAllocate, &AllocateReq{NumChunks: 2, Replication: 1}, &alloc); err != nil {
		t.Fatal(err)
	}
	if len(alloc.Sets) != 2 || alloc.Sets[0][0] != "prov1" {
		t.Fatalf("alloc = %+v", alloc)
	}

	// Store and fetch a chunk through the allocated provider.
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	if errs, err := provider.PutChunks(cli, "prov1", []provider.PutItem{{Key: key, Data: []byte("data")}}); err != nil || errs[0] != nil {
		t.Fatal(err, errs)
	}
	if data, err := provider.GetChunk(cli, "prov1", key); err != nil || string(data) != "data" {
		t.Fatalf("get = %q, %v", data, err)
	}
	stats, err := provider.Stats(context.Background(), cli, "prov1")
	if err != nil || stats[provider.Chunks] != 1 || stats[provider.Puts] != 1 {
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
	m := managerAt(&now)
	for _, a := range []string{"dp0", "dp1", "dp2", "dp3"} {
		beat(m, a, 0, 0)
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

// TestAllocateRejectsCountPastOneFrame: a 12-byte request naming 2^32-1
// chunks must be refused before the manager sizes its reply, since no
// such reply fits in one RPC frame; the largest count that fits is served.
func TestAllocateRejectsCountPastOneFrame(t *testing.T) {
	now := time.Unix(1000, 0)
	m := managerAt(&now)
	beat(m, "dp0", 0, 0)
	if _, err := m.Allocate(math.MaxUint32, 1, nil); !errors.Is(err, ErrTooManyChunks) {
		t.Fatalf("err = %v, want ErrTooManyChunks", err)
	}
	// One set of one 3-byte address takes 4+4+3 bytes of the reply.
	fits := (rpc.MaxFrame - 4) / 11
	if _, err := m.Allocate(fits+1, 1, nil); !errors.Is(err, ErrTooManyChunks) {
		t.Fatalf("one set past a frame: err = %v, want ErrTooManyChunks", err)
	}
	if _, err := m.Allocate(2, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateRespCorruptCount: a set count larger than the bytes left
// fails the decode with ErrTooLarge instead of sizing an allocation.
func TestAllocateRespCorruptCount(t *testing.T) {
	body, _ := hex.DecodeString("01000000ffffffff")
	if err := wire.Unmarshal(body, &AllocateResp{}); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}
