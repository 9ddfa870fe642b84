package meta

import (
	"context"
	"testing"

	"repro/internal/chunk"
)

// The adaptive expansion depth follows AIMD over per-round outcomes:
// majority-miss rounds halve it (floor 1), near-perfect rounds add one.
func TestSpecDepthAIMD(t *testing.T) {
	c := NewClient(nil, []string{"m0"}, 1, 0)
	if got := c.SpecDepth(); got != specMaxDepth {
		t.Fatalf("initial depth = %d, want %d", got, specMaxDepth)
	}
	// Tiny rounds carry no signal.
	c.observeSpec(0, specAdaptMinRound-1)
	if got := c.SpecDepth(); got != specMaxDepth {
		t.Fatalf("depth after under-sample round = %d, want unchanged %d", got, specMaxDepth)
	}
	// Majority-miss rounds: 62 -> 31 -> 15 -> ... -> 1, never 0.
	want := specMaxDepth
	for i := 0; i < 10; i++ {
		c.observeSpec(0, specAdaptMinRound)
		want /= 2
		if want < 1 {
			want = 1
		}
		if got := c.SpecDepth(); got != want {
			t.Fatalf("depth after miss round %d = %d, want %d", i+1, got, want)
		}
	}
	// Near-perfect rounds re-deepen one level at a time.
	c.observeSpec(specAdaptMinRound, 0)
	if got := c.SpecDepth(); got != 2 {
		t.Fatalf("depth after perfect round = %d, want 2", got)
	}
	// A round with a meaningful miss share (but not majority) holds.
	c.observeSpec(12, 4)
	if got := c.SpecDepth(); got != 2 {
		t.Fatalf("depth after mixed round = %d, want unchanged 2", got)
	}
	// Hit/miss totals still accumulate for RPCStats.
	st := c.RPCStats()
	if st.SpecHits == 0 || st.SpecMisses == 0 {
		t.Fatalf("spec counters not accumulated: %+v", st)
	}
}

// depthCappedStore exposes a MemStore WITHOUT its Peeker refinement (so
// the descent must fetch) and advises a fixed expansion depth, recording
// every batch it serves.
type depthCappedStore struct {
	mem    *MemStore
	depth  int
	rounds int
	keys   int
}

func (s *depthCappedStore) PutNodes(nodes []*Node) error { return s.mem.PutNodes(nodes) }
func (s *depthCappedStore) GetNode(ctx context.Context, key NodeKey) (*Node, error) {
	return s.mem.GetNode(ctx, key)
}
func (s *depthCappedStore) GetNodes(ctx context.Context, keys []NodeKey) ([]*Node, error) {
	s.rounds++
	s.keys += len(keys)
	return s.mem.GetNodes(ctx, keys)
}
func (s *depthCappedStore) specExpansionDepth() int { return s.depth }

// uniformTree weaves one full write of n chunks (every node labeled with
// the version) into the store.
func uniformTree(t *testing.T, store nodeStore, blob, version, n uint64) {
	t.Helper()
	leaves := make([]ChunkRef, n)
	for i := range leaves {
		leaves[i] = ChunkRef{
			Providers: []string{"dp0"},
			Key:       chunk.Key{Blob: blob, Version: 100 + version, Index: uint64(i)},
			Length:    1,
		}
	}
	nodes, _, err := Weave(store, WeaveInput{
		Blob: blob, Version: version,
		StartChunk: 0, EndChunk: n, SizeChunks: n,
		Leaves: leaves,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
}

// The advised depth really bounds the enumeration: with depth 0 a uniform
// 8-chunk tree takes one fetch round per level (no speculation); with the
// full depth one round resolves it.
func TestSpecDepthBoundsEnumeration(t *testing.T) {
	mem := NewMemStore()
	uniformTree(t, mem, 1, 1, 8)

	unlimited := &depthCappedStore{mem: mem, depth: specMaxDepth}
	if _, err := CollectLeaves(unlimited, 1, 1, 8, 0, 8); err != nil {
		t.Fatal(err)
	}
	if unlimited.rounds != 1 {
		t.Errorf("unlimited depth: %d fetch rounds, want 1 (speculation resolves the tree)", unlimited.rounds)
	}

	capped := &depthCappedStore{mem: mem, depth: 0}
	refs, err := CollectLeaves(capped, 1, 1, 8, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 8 {
		t.Fatalf("capped descent returned %d refs, want 8", len(refs))
	}
	// Tree of span 8: levels 8, 4, 2, 1 -> four strict level-order rounds.
	if capped.rounds != 4 {
		t.Errorf("depth-0 descent: %d fetch rounds, want 4 (strict level order)", capped.rounds)
	}
	// And it fetches exactly the 15 tree nodes, zero wasted keys.
	if capped.keys != 15 {
		t.Errorf("depth-0 descent fetched %d keys, want 15", capped.keys)
	}
}

// Leaf replica patches: applied only to matching leaves, idempotent, and
// immune to late idempotent re-puts of the pre-patch node.
func TestPatchReplicas(t *testing.T) {
	s := NewMemStore()
	leafKey := NodeKey{Blob: 1, Version: 3, Off: 2, Size: 1}
	ck := chunk.Key{Blob: 1, Version: 77, Index: 2}
	orig := &Node{Key: leafKey, Leaf: true, Chunk: ChunkRef{
		Providers: []string{"dead", "dp1"}, Key: ck, Length: 9,
	}}
	inner := &Node{Key: NodeKey{Blob: 1, Version: 3, Off: 0, Size: 4}, LeftVer: 2, RightVer: 3}
	if err := s.PutNodes([]*Node{orig, inner}); err != nil {
		t.Fatal(err)
	}

	// Chunk mismatch, missing key, non-leaf, empty provider list (which
	// would flip the leaf to IsZero and orphan the data): all skipped.
	n := s.PatchReplicas([]ReplicaPatch{
		{Key: leafKey, Chunk: chunk.Key{Blob: 1, Version: 88, Index: 2}, Providers: []string{"x"}},
		{Key: NodeKey{Blob: 9, Version: 9, Off: 0, Size: 1}, Chunk: ck, Providers: []string{"x"}},
		{Key: inner.Key, Chunk: ck, Providers: []string{"x"}},
		{Key: leafKey, Chunk: ck, Providers: nil},
	})
	if n != 0 {
		t.Fatalf("mismatched patches applied: %d", n)
	}
	if got, _ := s.GetNode(context.Background(), leafKey); got.Chunk.IsZero() {
		t.Fatal("empty patch zeroed the leaf")
	}

	// The real patch applies once; a duplicate is a no-op.
	patch := ReplicaPatch{Key: leafKey, Chunk: ck, Providers: []string{"dp1", "dp2"}}
	if n := s.PatchReplicas([]ReplicaPatch{patch}); n != 1 {
		t.Fatalf("patch applied %d leaves, want 1", n)
	}
	if n := s.PatchReplicas([]ReplicaPatch{patch}); n != 0 {
		t.Fatalf("duplicate patch applied %d leaves, want 0", n)
	}
	got, err := s.GetNode(context.Background(), leafKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunk.Providers) != 2 || got.Chunk.Providers[0] != "dp1" || got.Chunk.Providers[1] != "dp2" {
		t.Fatalf("patched providers = %v", got.Chunk.Providers)
	}

	// A writer's late idempotent retry carrying the PRE-patch placement
	// must neither error nor clobber the patch.
	if err := s.PutNodes([]*Node{orig}); err != nil {
		t.Fatalf("late idempotent re-put after patch: %v", err)
	}
	got, _ = s.GetNode(context.Background(), leafKey)
	if got.Chunk.Providers[0] != "dp1" {
		t.Fatalf("late re-put clobbered the patch: %v", got.Chunk.Providers)
	}
	// Genuinely conflicting rewrites still error.
	bad := &Node{Key: leafKey, Leaf: true, Chunk: ChunkRef{
		Providers: []string{"dp1"}, Key: chunk.Key{Blob: 1, Version: 99, Index: 2}, Length: 9,
	}}
	if err := s.PutNodes([]*Node{bad}); err == nil {
		t.Fatal("conflicting chunk identity rewrite accepted")
	}
}

// Patches are journaled: a restarted PersistentStore serves the patched
// replica list, not the dead one.
func TestPersistentStorePatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ps, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	leafKey := NodeKey{Blob: 4, Version: 1, Off: 0, Size: 1}
	ck := chunk.Key{Blob: 4, Version: 50, Index: 0}
	if err := ps.PutNodes([]*Node{{Key: leafKey, Leaf: true, Chunk: ChunkRef{
		Providers: []string{"dead"}, Key: ck, Length: 3,
	}}}); err != nil {
		t.Fatal(err)
	}
	if n := ps.PatchReplicas([]ReplicaPatch{{Key: leafKey, Chunk: ck, Providers: []string{"alive"}}}); n != 1 {
		t.Fatalf("patch applied %d, want 1", n)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.GetNode(context.Background(), leafKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunk.Providers) != 1 || got.Chunk.Providers[0] != "alive" {
		t.Fatalf("replayed providers = %v, want [alive]", got.Chunk.Providers)
	}
}
