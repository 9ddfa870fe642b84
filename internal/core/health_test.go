package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestHealthOrderPrefersFastProviders(t *testing.T) {
	h := newProviderHealth()
	for i := 0; i < 10; i++ {
		h.observe("slow", 500, false)
		h.observe("fast", 2, false)
		h.observe("failing", 10, true)
	}
	got := h.order([]string{"failing", "slow", "fast"})
	if got[0] != "fast" {
		t.Errorf("order = %v, want fast first", got)
	}
	if got[2] != "failing" {
		t.Errorf("order = %v, want failing last (error penalty)", got)
	}
}

func TestHealthUnknownProvidersProbedFirst(t *testing.T) {
	h := newProviderHealth()
	h.observe("known", 50, false)
	got := h.order([]string{"known", "unknown"})
	if got[0] != "unknown" {
		t.Errorf("order = %v, want optimistic probe of unknown first", got)
	}
}

func TestHealthRecovers(t *testing.T) {
	h := newProviderHealth()
	for i := 0; i < 5; i++ {
		h.observe("a", 1000, true)
	}
	h.observe("b", 5, false)
	if h.order([]string{"a", "b"})[0] != "b" {
		t.Fatal("degraded provider preferred")
	}
	// Provider a becomes healthy: EWMA converges back down.
	for i := 0; i < 40; i++ {
		h.observe("a", 1, false)
		h.observe("b", 5, false)
	}
	if h.order([]string{"b", "a"})[0] != "a" {
		t.Fatal("recovered provider never preferred again")
	}
}

func TestHealthOrderStableAndComplete(t *testing.T) {
	h := newProviderHealth()
	f := func(seed uint8) bool {
		addrs := []string{"p0", "p1", "p2", "p3"}
		h.observe(addrs[int(seed)%4], float64(seed), seed%3 == 0)
		got := h.order(addrs)
		if len(got) != 4 {
			return false
		}
		seen := map[string]bool{}
		for _, a := range got {
			seen[a] = true
		}
		return len(seen) == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Single-element and empty inputs pass through.
	if got := h.order([]string{"only"}); len(got) != 1 || got[0] != "only" {
		t.Errorf("single = %v", got)
	}
	if got := h.order(nil); got != nil {
		t.Errorf("nil = %v", got)
	}
}

// TestHealthOrderTiesKeepPlacementAndAllocatesOnce: replicas with equal
// scores keep their placement order around better and worse ones, the
// caller's slice is left as it was, and ordering costs at most one
// allocation (the copy it returns).
func TestHealthOrderTiesKeepPlacementAndAllocatesOnce(t *testing.T) {
	h := newProviderHealth()
	h.observe("slow", 50, false)
	h.observe("t1", 5, false)
	h.observe("t2", 5, false)
	h.observe("t3", 5, false)
	h.observe("fast", 1, false)
	addrs := []string{"t3", "slow", "t1", "fast", "t2"}
	got := h.order(addrs)
	if want := []string{"fast", "t3", "t1", "t2", "slow"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if !slices.Equal(addrs, []string{"t3", "slow", "t1", "fast", "t2"}) {
		t.Fatalf("order reordered its argument: %v", addrs)
	}
	for _, pair := range [][]string{{"new1", "new2"}, {"t2", "t1"}} {
		if got := h.order(pair); !slices.Equal(got, pair) {
			t.Fatalf("tied pair %v ordered as %v", pair, got)
		}
	}
	for _, in := range [][]string{{"slow", "fast"}, addrs} {
		if n := testing.AllocsPerRun(100, func() { h.order(in) }); n > 1 {
			t.Fatalf("order of %d replicas made %.0f allocations, want at most 1", len(in), n)
		}
	}
}
