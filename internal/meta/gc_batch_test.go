package meta_test

import (
	"context"
	"testing"

	"repro/internal/meta"
)

// TestGCWalkRPCBound asserts the batched liveness walk's cost bound: a
// full-floor walk of a 256-chunk tree against M metadata providers issues
// at most M × tree-depth meta.getnodes RPCs and — with no holes in the
// tree — zero GetNode point-lookup fallbacks. (The node-at-a-time walker
// this replaced paid one RPC per node: ~511 for this tree.)
func TestGCWalkRPCBound(t *testing.T) {
	const m, size = 4, 256
	rig := startMetaRig(t, m, 1, 0)
	const blob = 21
	weaveRefHistory(t, rig.client, blob, []refWrite{
		{version: 1, start: 0, end: size, sizeChunks: size},
		{version: 2, start: 64, end: 192, sizeChunks: size},
	})

	walker := newReaderClient(t, rig, 1, 0)
	live, err := meta.CollectLive(context.Background(), walker, blob, 2, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Chunks) != size {
		t.Fatalf("live walk found %d chunks, want %d", len(live.Chunks), size)
	}
	stats := walker.RPCStats()
	bound := int64(m * treeDepth(size))
	if stats.GetNodesRPCs > bound {
		t.Errorf("full-floor walk issued %d meta.getnodes RPCs, bound %d", stats.GetNodesRPCs, bound)
	}
	if stats.GetRPCs != 0 {
		t.Errorf("walk of an intact tree fell back to %d GetNode point lookups", stats.GetRPCs)
	}
	t.Logf("CollectLive: %d getnodes RPCs (bound %d) for %d nodes", stats.GetNodesRPCs, bound, len(live.Nodes))

	// AddOwned over the overwrite version obeys the same bound.
	before := stats.GetNodesRPCs
	if err := live.AddOwned(context.Background(), walker, blob, 2, size); err != nil {
		t.Fatal(err)
	}
	stats = walker.RPCStats()
	if got := stats.GetNodesRPCs - before; got > bound {
		t.Errorf("owned walk issued %d meta.getnodes RPCs, bound %d", got, bound)
	}
	if stats.GetRPCs != 0 {
		t.Errorf("owned walk fell back to %d GetNode point lookups", stats.GetRPCs)
	}
}

// TestGCWalkHoleSkippedWithoutError deletes one inner node from every
// replica — the definitive hole a crashed abort-repair leaves — and
// checks the batched walk still distinguishes it correctly: the walk
// completes, the hole's subtree contributes nothing, and everything
// outside it is collected.
func TestGCWalkHoleSkippedWithoutError(t *testing.T) {
	const size = 8
	rig := startMetaRig(t, 3, 1, 0)
	const blob = 22
	weaveRefHistory(t, rig.client, blob, []refWrite{{version: 1, start: 0, end: size, sizeChunks: size}})

	// Kill the left half's inner node on every DHT member.
	hole := meta.NodeKey{Blob: blob, Version: 1, Off: 0, Size: 4}
	if _, err := rig.client.DeleteNodes(context.Background(), []meta.NodeKey{hole}); err != nil {
		t.Fatal(err)
	}

	walker := newReaderClient(t, rig, 1, 0)
	live, err := meta.CollectLive(context.Background(), walker, blob, 1, size)
	if err != nil {
		t.Fatalf("walk over a definitive hole must succeed: %v", err)
	}
	if live.Has(hole) {
		t.Error("hole collected as live")
	}
	for idx := uint64(4); idx < size; idx++ {
		if !live.Has(meta.NodeKey{Blob: blob, Version: 1, Off: idx, Size: 1}) {
			t.Errorf("leaf %d outside the hole not collected", idx)
		}
	}
	if len(live.Chunks) != 4 {
		t.Errorf("collected %d chunks, want 4 (right half only)", len(live.Chunks))
	}
}

// TestGCWalkUnreachableAborts downs one metadata provider (replication 1,
// so its nodes are simply unreachable, not absent) and checks the batched
// walk refuses to complete: confusing "unreachable" with "absent" would
// let the sweep delete data retained snapshots still reference.
func TestGCWalkUnreachableAborts(t *testing.T) {
	const size = 64
	rig := startMetaRig(t, 2, 1, 0)
	const blob = 23
	weaveRefHistory(t, rig.client, blob, []refWrite{{version: 1, start: 0, end: size, sizeChunks: size}})

	rig.fabric.SetDown(rig.addrs[0], true)
	walker := newReaderClient(t, rig, 1, 0)
	if _, err := meta.CollectLive(context.Background(), walker, blob, 1, size); err == nil {
		t.Fatal("walk with an unreachable replica reported a complete live set")
	}
}

// TestSpeculationTelemetry checks the exported same-label expansion
// counters: a single-writer tree is uniformly labeled (every speculative
// key resolves — no misses), while a fragmented history must record the
// wasted lookups as misses.
func TestSpeculationTelemetry(t *testing.T) {
	const size = 64
	rig := startMetaRig(t, 3, 1, 0)
	const blob = 24
	weaveRefHistory(t, rig.client, blob, []refWrite{{version: 1, start: 0, end: size, sizeChunks: size}})

	uniform := newReaderClient(t, rig, 1, 0)
	if _, err := meta.CollectLeaves(uniform, blob, 1, size, 0, size); err != nil {
		t.Fatal(err)
	}
	st := uniform.RPCStats()
	if st.SpecHits == 0 {
		t.Error("uniform tree recorded no speculation hits")
	}
	if st.SpecMisses != 0 {
		t.Errorf("uniform tree recorded %d speculation misses", st.SpecMisses)
	}

	weaveRefHistory(t, rig.client, blob, []refWrite{
		{version: 2, start: 0, end: 16, sizeChunks: size},
		{version: 3, start: 48, end: 64, sizeChunks: size},
	})
	frag := newReaderClient(t, rig, 1, 0)
	if _, err := meta.CollectLeaves(frag, blob, 3, size, 0, size); err != nil {
		t.Fatal(err)
	}
	st = frag.RPCStats()
	if st.SpecMisses == 0 {
		t.Error("fragmented history recorded no speculation misses")
	}
	t.Logf("uniform: %d hits; fragmented: %d hits / %d misses",
		uniform.RPCStats().SpecHits, st.SpecHits, st.SpecMisses)
}
