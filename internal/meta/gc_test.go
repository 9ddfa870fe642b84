package meta

import (
	"context"
	"testing"

	"repro/internal/chunk"
)

// weaveSeq stores version v's tree into store as a sequential write of
// [start, end) with the blob at sizeChunks after it, previous published
// version prevV with prevSize chunks. Chunk keys use v as the write ID so
// tests can tell versions' chunks apart.
// nodeStore is a Store the tests also write their woven nodes into.
type nodeStore interface {
	Store
	PutNodes(nodes []*Node) error
}

func weaveSeq(t *testing.T, store nodeStore, blob, v, start, end, sizeChunks, prevV, prevSize uint64) {
	t.Helper()
	leaves := make([]ChunkRef, end-start)
	for i := range leaves {
		leaves[i] = ChunkRef{
			Providers: []string{"p0"},
			Key:       chunk.Key{Blob: blob, Version: 1<<40 + v, Index: start + uint64(i)},
			Length:    100,
		}
	}
	nodes, _, err := Weave(store, WeaveInput{
		Blob:          blob,
		Version:       v,
		StartChunk:    start,
		EndChunk:      end,
		SizeChunks:    sizeChunks,
		Leaves:        leaves,
		PubVersion:    prevV,
		PubSizeChunks: prevSize,
	})
	if err != nil {
		t.Fatalf("weave v%d: %v", v, err)
	}
	if err := store.PutNodes(nodes); err != nil {
		t.Fatalf("store v%d: %v", v, err)
	}
}

// The canonical sharing shape: v1 writes the whole blob, v2 and v3 each
// overwrite only chunk 0. v3's tree shares v1's right-hand subtree, so
// pruning v1 must keep exactly that subtree (and its chunks) alive.
func buildChain(t *testing.T) nodeStore {
	t.Helper()
	store := NewMemStore()
	weaveSeq(t, store, 1, 1, 0, 4, 4, 0, 0) // v1: [0,4)
	weaveSeq(t, store, 1, 2, 0, 1, 4, 1, 4) // v2: [0,1)
	weaveSeq(t, store, 1, 3, 0, 1, 4, 2, 4) // v3: [0,1)
	return store
}

func key(v, off, size uint64) NodeKey { return NodeKey{Blob: 1, Version: v, Off: off, Size: size} }

func TestCollectLiveSharedSubtrees(t *testing.T) {
	store := buildChain(t)
	live, err := CollectLive(context.Background(), store, 1, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// v3's own spine plus v1's untouched right side.
	wantLive := []NodeKey{
		key(3, 0, 4), key(3, 0, 2), key(3, 0, 1),
		key(1, 1, 1), key(1, 2, 2), key(1, 2, 1), key(1, 3, 1),
	}
	for _, k := range wantLive {
		if !live.Has(k) {
			t.Errorf("live set missing %s", k)
		}
	}
	if len(live.Nodes) != len(wantLive) {
		t.Errorf("live set has %d nodes, want %d", len(live.Nodes), len(wantLive))
	}
	// Chunks: v3's chunk 0 plus v1's chunks 1..3.
	wantChunks := []chunk.Key{
		{Blob: 1, Version: 1<<40 + 3, Index: 0},
		{Blob: 1, Version: 1<<40 + 1, Index: 1},
		{Blob: 1, Version: 1<<40 + 1, Index: 2},
		{Blob: 1, Version: 1<<40 + 1, Index: 3},
	}
	for _, k := range wantChunks {
		if !live.HasChunk(k) {
			t.Errorf("live chunks missing %s", k)
		}
	}
	if len(live.Chunks) != len(wantChunks) {
		t.Errorf("live set has %d chunks, want %d", len(live.Chunks), len(wantChunks))
	}
}

func TestAddOwnedEnumeratesOwnedSubgraph(t *testing.T) {
	store := buildChain(t)
	v1 := NewLiveSet()
	if err := v1.AddOwned(context.Background(), store, 1, 1, 4); err != nil {
		t.Fatal(err)
	}
	if len(v1.Nodes) != 7 { // root, two inner, four leaves
		t.Fatalf("v1 owns %d nodes, want 7", len(v1.Nodes))
	}
	if len(v1.Chunks) != 4 {
		t.Fatalf("v1 references %d chunks, want 4", len(v1.Chunks))
	}
	v2 := NewLiveSet()
	if err := v2.AddOwned(context.Background(), store, 1, 2, 4); err != nil {
		t.Fatal(err)
	}
	if len(v2.Nodes) != 3 { // root, (0,2), leaf 0 — the rest is referenced, not owned
		t.Fatalf("v2 owns %d nodes, want 3", len(v2.Nodes))
	}
	if len(v2.Chunks) != 1 {
		t.Fatalf("v2 references %d chunks, want 1", len(v2.Chunks))
	}
}

func TestDiffDeadSparesSharedNodes(t *testing.T) {
	store := buildChain(t)
	live, err := CollectLive(context.Background(), store, 1, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Floor advance 1 -> 3: candidates are v1's full tree plus v2's owned
	// subgraph.
	candidates, err := CollectLive(context.Background(), store, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	candidates.AddOwned(context.Background(), store, 1, 2, 4)

	deadNodes, deadChunks := DiffDead(candidates, live)
	// Dead: v1's overwritten spine (root, (0,2), leaf 0) and v2's whole
	// spine (superseded by v3). Shared right-hand side survives.
	wantDead := map[NodeKey]bool{
		key(1, 0, 4): true, key(1, 0, 2): true, key(1, 0, 1): true,
		key(2, 0, 4): true, key(2, 0, 2): true, key(2, 0, 1): true,
	}
	if len(deadNodes) != len(wantDead) {
		t.Fatalf("dead nodes = %v, want %v", deadNodes, wantDead)
	}
	for _, k := range deadNodes {
		if !wantDead[k] {
			t.Errorf("unexpected dead node %s", k)
		}
	}
	// Dead chunks: v1's and v2's chunk 0 (both overwritten by v3).
	if len(deadChunks) != 2 {
		t.Fatalf("dead chunks = %v, want 2", deadChunks)
	}
	for _, ch := range deadChunks {
		if ch.Key.Index != 0 {
			t.Errorf("unexpected dead chunk %s (only index 0 was overwritten)", ch.Key)
		}
	}
}

// A chunk that survives one floor advance (still shared) must die in a
// later advance once an overwrite supersedes it — the candidates walk of
// the OLD floor tree is what carries such long-lived state forward.
func TestDiffDeadAcrossTwoAdvances(t *testing.T) {
	store := buildChain(t)
	// v4 overwrites everything: v1's surviving right side finally dies.
	weaveSeq(t, store, 1, 4, 0, 4, 4, 3, 4)

	// First advance: 1 -> 3 (as in the sweep above).
	live3, _ := CollectLive(context.Background(), store, 1, 3, 4)
	candidates, _ := CollectLive(context.Background(), store, 1, 1, 4)
	candidates.AddOwned(context.Background(), store, 1, 2, 4)
	deadNodes, _ := DiffDead(candidates, live3)
	store.(*MemStore).DeleteNodes(deadNodes)

	// Second advance: 3 -> 4. Candidates = reachable(3), which still
	// includes v1's shared right-hand subtree.
	live4, _ := CollectLive(context.Background(), store, 1, 4, 4)
	candidates3, _ := CollectLive(context.Background(), store, 1, 3, 4)
	deadNodes, deadChunks := DiffDead(candidates3, live4)
	store.(*MemStore).DeleteNodes(deadNodes)

	wantDeadChunks := map[chunk.Key]bool{
		{Blob: 1, Version: 1<<40 + 3, Index: 0}: true,
		{Blob: 1, Version: 1<<40 + 1, Index: 1}: true,
		{Blob: 1, Version: 1<<40 + 1, Index: 2}: true,
		{Blob: 1, Version: 1<<40 + 1, Index: 3}: true,
	}
	if len(deadChunks) != len(wantDeadChunks) {
		t.Fatalf("second advance dead chunks = %v, want %v", deadChunks, wantDeadChunks)
	}
	for _, ch := range deadChunks {
		if !wantDeadChunks[ch.Key] {
			t.Errorf("unexpected dead chunk %s", ch.Key)
		}
	}
	// Only v4's tree remains in the store.
	if n := store.(*MemStore).Len(); n != 7 {
		t.Fatalf("store holds %d nodes after both sweeps, want 7 (v4's tree)", n)
	}
	refs, err := CollectLeaves(store, 1, 4, 4, 0, 4)
	if err != nil {
		t.Fatalf("floor unreadable after sweeps: %v", err)
	}
	for i, r := range refs {
		if r.IsZero() {
			t.Errorf("chunk %d of floor resolved to zero", i)
		}
	}
}

// Simulates one completed sweep: after v1 and v2's dead nodes are removed,
// reads of v3 still resolve every chunk, and the walkers tolerate the
// now-missing nodes of pruned versions.
func TestSweepPreservesRetainedReads(t *testing.T) {
	store := buildChain(t)
	live, err := CollectLive(context.Background(), store, 1, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ms := store.(*MemStore)
	candidates, err := CollectLive(context.Background(), store, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	candidates.AddOwned(context.Background(), store, 1, 2, 4)
	deadNodes, _ := DiffDead(candidates, live)
	ms.DeleteNodes(deadNodes)

	refs, err := CollectLeaves(store, 1, 3, 4, 0, 4)
	if err != nil {
		t.Fatalf("retained version unreadable after sweep: %v", err)
	}
	for i, r := range refs {
		if r.IsZero() {
			t.Errorf("chunk %d resolved to zero after sweep", i)
		}
	}
	// Walking a pruned version now hits holes; must not panic and must
	// not resurrect anything.
	pruned := NewLiveSet()
	_ = pruned.AddOwned(context.Background(), store, 1, 1, 4)
	for k := range pruned.Nodes {
		if !live.Has(k) {
			t.Errorf("pruned walk still sees dead node %s", k)
		}
	}
}

// The retention floor can land on an aborted version whose abort-repair
// never wove a tree (crashed writer, metadata providers down). The union
// walk over ALL retained versions must still protect everything newer
// retained snapshots reference — anchoring on the floor tree alone would
// return an empty live set and let the sweep delete live data.
func TestUnionWalkSurvivesUnwovenFloorVersion(t *testing.T) {
	store := NewMemStore()
	weaveSeq(t, store, 1, 1, 0, 4, 4, 0, 0) // v1: full write
	// v2: aborted, NO tree stored (abort-repair failed entirely).
	// v3: overwrites chunk 0, woven with v2 as an in-flight descriptor
	// (assigned before v2 aborted), so untouched ranges reference v1.
	leaves := []ChunkRef{{
		Providers: []string{"p0"},
		Key:       chunk.Key{Blob: 1, Version: 1<<40 + 3, Index: 0},
		Length:    100,
	}}
	nodes, _, err := Weave(store, WeaveInput{
		Blob: 1, Version: 3, StartChunk: 0, EndChunk: 1, SizeChunks: 4,
		Leaves:        leaves,
		InFlight:      []WriteDesc{{Version: 2, StartChunk: 0, EndChunk: 1, SizeChunks: 4, SizeBytes: 400}},
		PubVersion:    1,
		PubSizeChunks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}

	// Floor = 2 (the unwoven aborted version). Union walk over retained
	// versions 2 and 3.
	live := NewLiveSet()
	if err := CollectLiveInto(context.Background(), live, store, 1, 2, 4); err != nil {
		t.Fatalf("walk of unwoven floor: %v", err)
	}
	if len(live.Nodes) != 0 {
		t.Fatalf("unwoven floor contributed %d nodes", len(live.Nodes))
	}
	if err := CollectLiveInto(context.Background(), live, store, 1, 3, 4); err != nil {
		t.Fatal(err)
	}
	// v1's untouched right side must be protected via v3's references.
	for _, k := range []NodeKey{key(1, 1, 1), key(1, 2, 2), key(1, 2, 1), key(1, 3, 1)} {
		if !live.Has(k) {
			t.Errorf("live set missing %s (referenced by retained v3)", k)
		}
	}

	// Sweep floor advance 1 -> 2 and verify v3 still reads fully.
	candidates, err := CollectLive(context.Background(), store, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	deadNodes, deadChunks := DiffDead(candidates, live)
	if len(deadChunks) != 1 || deadChunks[0].Key.Index != 0 {
		t.Fatalf("dead chunks = %v, want only v1 chunk 0", deadChunks)
	}
	store.DeleteNodes(deadNodes)
	refs, err := CollectLeaves(store, 1, 3, 4, 0, 4)
	if err != nil {
		t.Fatalf("retained v3 unreadable after sweep: %v", err)
	}
	for i := 1; i < 4; i++ {
		if refs[i].IsZero() {
			t.Errorf("v3 chunk %d lost by sweep anchored on unwoven floor", i)
		}
	}
}

func TestCollectLiveToleratesMissingRoot(t *testing.T) {
	store := NewMemStore()
	live, err := CollectLive(context.Background(), store, 1, 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Nodes) != 0 || len(live.Chunks) != 0 {
		t.Fatalf("empty store produced live set %v", live)
	}
}
