package meta

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
	"repro/internal/wire"
)

// TestReplicaCountPastCapFailsDecode: a leaf or replica patch naming more
// than MaxReplicas providers must fail to decode, not come back as a
// zero-replica (all-zeros) chunk with the fields after the count misread.
func TestReplicaCountPastCapFailsDecode(t *testing.T) {
	providers := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("dp%d", i)
		}
		return out
	}
	for _, n := range []int{MaxReplicas, MaxReplicas + 1} {
		leaf := &Node{Key: NodeKey{Blob: 1, Version: 1, Size: 1}, Leaf: true,
			Chunk: ChunkRef{Providers: providers(n), Key: chunk.Key{Blob: 1, Version: 1, Index: 7}, Length: 9}}
		var got Node
		err := wire.Unmarshal(wire.Marshal(leaf), &got)
		if n <= MaxReplicas && (err != nil || !nodesEqual(&got, leaf)) {
			t.Errorf("%d replicas: leaf round trip = %+v, %v", n, got, err)
		}
		if n > MaxReplicas && !errors.Is(err, wire.ErrTooLarge) {
			t.Errorf("%d replicas: leaf decoded to %d providers, err %v; want ErrTooLarge", n, len(got.Chunk.Providers), err)
		}

		patch := &PatchReplicasReq{Patches: []ReplicaPatch{{Key: leaf.Key, Chunk: leaf.Chunk.Key, Providers: providers(n)}}}
		var gotPatch PatchReplicasReq
		err = wire.Unmarshal(wire.Marshal(patch), &gotPatch)
		if n <= MaxReplicas && (err != nil || len(gotPatch.Patches) != 1 || len(gotPatch.Patches[0].Providers) != n) {
			t.Errorf("%d replicas: patch round trip = %+v, %v", n, gotPatch, err)
		}
		if n > MaxReplicas && !errors.Is(err, wire.ErrTooLarge) {
			t.Errorf("%d replicas: patch decoded with err %v; want ErrTooLarge", n, err)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNodeEncodingRoundTrip(t *testing.T) {
	nodes := []*Node{
		{Key: NodeKey{1, 2, 0, 8}, LeftVer: 2, RightVer: ZeroVersion},
		{Key: NodeKey{1, 2, 4, 1}, Leaf: true, Chunk: ChunkRef{
			Providers: []string{"p1", "p2", "p3"},
			Key:       chunk.Key{Blob: 1, Version: 2, Index: 4},
			Length:    65536,
		}},
		{Key: NodeKey{9, 1, 0, 1}, Leaf: true, Chunk: ChunkRef{}}, // zero leaf
	}
	for _, n := range nodes {
		buf := wire.Marshal(n)
		var got Node
		if err := wire.Unmarshal(buf, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", n.Key, err)
		}
		if !nodesEqual(n, &got) {
			t.Errorf("roundtrip mismatch: %+v vs %+v", n, got)
		}
	}
}

func TestWriteDescEncodingRoundTrip(t *testing.T) {
	f := func(v, s, e, sc, sb uint64) bool {
		w := WriteDesc{Version: v, StartChunk: s, EndChunk: e, SizeChunks: sc, SizeBytes: sb}
		var got WriteDesc
		if err := wire.Unmarshal(wire.Marshal(&w), &got); err != nil {
			return false
		}
		return got == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreConflictDetection(t *testing.T) {
	s := NewMemStore()
	n := &Node{Key: NodeKey{1, 1, 0, 2}, LeftVer: 1, RightVer: ZeroVersion}
	if err := s.PutNodes([]*Node{n}); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put is fine.
	if err := s.PutNodes([]*Node{n}); err != nil {
		t.Fatalf("idempotent put: %v", err)
	}
	conflict := &Node{Key: n.Key, LeftVer: 99, RightVer: 1}
	if err := s.PutNodes([]*Node{conflict}); err == nil {
		t.Fatal("conflicting rewrite accepted")
	}
	if _, err := s.GetNode(context.Background(), NodeKey{5, 5, 0, 1}); err == nil {
		t.Fatal("GetNode(absent) succeeded")
	}
}

// --- model-based weave testing ---------------------------------------------

// modelWrite is one write in a generated history.
type modelWrite struct {
	version    uint64
	start, end uint64 // chunk range
}

// chunkOwner returns which version wrote chunk i as of version v (0 =
// never written / zero).
func chunkOwner(history []modelWrite, v, i uint64) uint64 {
	var owner uint64
	for _, w := range history {
		if w.version > v {
			break
		}
		if i >= w.start && i < w.end {
			owner = w.version
		}
	}
	return owner
}

func sizeChunksAt(history []modelWrite, v uint64) uint64 {
	var size uint64
	for _, w := range history {
		if w.version > v {
			break
		}
		if w.end > size {
			size = w.end
		}
	}
	return size
}

func mkLeaves(blob uint64, w modelWrite, chunkLen uint32) []ChunkRef {
	leaves := make([]ChunkRef, w.end-w.start)
	for i := range leaves {
		leaves[i] = ChunkRef{
			Providers: []string{fmt.Sprintf("prov-v%d", w.version)},
			Key:       chunk.Key{Blob: blob, Version: w.version, Index: w.start + uint64(i)},
			Length:    chunkLen,
		}
	}
	return leaves
}

// weaveHistory weaves a full history into store. publishLag controls how
// the in-flight window is formed: when a write of version v is woven, the
// published snapshot is version max(0, v-1-publishLag) and everything in
// between is handed over as in-flight descriptors — exercising reference
// resolution without any store reads for those versions.
func weaveHistory(t *testing.T, store nodeStore, blob uint64, history []modelWrite, publishLag int) {
	t.Helper()
	descs := make([]WriteDesc, len(history))
	for i, w := range history {
		descs[i] = WriteDesc{
			Version:    w.version,
			StartChunk: w.start,
			EndChunk:   w.end,
			SizeChunks: sizeChunksAt(history, w.version),
		}
	}
	for i, w := range history {
		pub := i - publishLag // index into history of published version
		pubVersion, pubSize := uint64(0), uint64(0)
		if pub > 0 {
			pubVersion = history[pub-1].version
			pubSize = sizeChunksAt(history, pubVersion)
		}
		var inflight []WriteDesc
		start := pub
		if start < 0 {
			start = 0
		}
		inflight = append(inflight, descs[start:i]...)
		in := WeaveInput{
			Blob:       blob,
			Version:    w.version,
			StartChunk: w.start,
			EndChunk:   w.end,
			SizeChunks: sizeChunksAt(history, w.version),
			Leaves:     mkLeaves(blob, w, 100),
			InFlight:   inflight,
			PubVersion: pubVersion, PubSizeChunks: pubSize,
		}
		nodes, root, err := Weave(store, in)
		if err != nil {
			t.Fatalf("weave v%d: %v", w.version, err)
		}
		if root.Version != w.version || root.Off != 0 || root.Size != NextPow2(in.SizeChunks) {
			t.Fatalf("weave v%d: bad root %v", w.version, root)
		}
		if err := store.PutNodes(nodes); err != nil {
			t.Fatalf("store v%d: %v", w.version, err)
		}
	}
}

// verifyHistory reads every version in full and compares against the model.
func verifyHistory(t *testing.T, store Store, blob uint64, history []modelWrite) {
	t.Helper()
	for _, w := range history {
		v := w.version
		size := sizeChunksAt(history, v)
		refs, err := CollectLeaves(store, blob, v, size, 0, size)
		if err != nil {
			t.Fatalf("collect v%d: %v", v, err)
		}
		for i := uint64(0); i < size; i++ {
			wantOwner := chunkOwner(history, v, i)
			got := refs[i]
			if wantOwner == 0 {
				if !got.IsZero() {
					t.Fatalf("v%d chunk %d: want zero, got %v", v, i, got)
				}
				continue
			}
			if got.IsZero() {
				t.Fatalf("v%d chunk %d: want owner v%d, got zero", v, i, wantOwner)
			}
			if got.Key.Version != wantOwner || got.Key.Index != i {
				t.Fatalf("v%d chunk %d: want owner v%d, got %v", v, i, wantOwner, got.Key)
			}
		}
	}
}

func historyFromSpec(spec [][2]uint64) []modelWrite {
	h := make([]modelWrite, len(spec))
	for i, s := range spec {
		h[i] = modelWrite{version: uint64(i + 1), start: s[0], end: s[1]}
	}
	return h
}

func TestWeaveSequentialBasic(t *testing.T) {
	// Writes published one by one (no concurrency): classic versioning.
	history := historyFromSpec([][2]uint64{
		{0, 4},   // v1: initial write, 4 chunks
		{1, 3},   // v2: overwrite middle
		{4, 8},   // v3: append, tree grows 4->8
		{0, 1},   // v4: overwrite first chunk
		{8, 9},   // v5: append one chunk, tree grows 8->16
		{15, 16}, // v6: sparse write leaving a zero gap [9,15)
		{10, 12}, // v7: fill part of the gap
	})
	store := NewMemStore()
	weaveHistory(t, store, 7, history, 0)
	verifyHistory(t, store, 7, history)
}

func TestWeaveAllInFlight(t *testing.T) {
	// Every previous write is still unpublished when the next one is
	// assigned: reference resolution must never touch the store for them.
	history := historyFromSpec([][2]uint64{
		{0, 2},
		{2, 4},
		{1, 3},
		{4, 16}, // big append while v1..v3 in flight
		{0, 1},
		{30, 33}, // sparse growth
	})
	store := NewMemStore()
	weaveHistory(t, store, 8, history, len(history))
	verifyHistory(t, store, 8, history)
}

func TestWeaveMixedPublishLag(t *testing.T) {
	history := historyFromSpec([][2]uint64{
		{0, 8}, {8, 16}, {3, 5}, {16, 24}, {0, 2}, {20, 40}, {39, 41}, {5, 6},
	})
	for lag := 0; lag <= 4; lag++ {
		store := NewMemStore()
		weaveHistory(t, store, uint64(100+lag), history, lag)
		verifyHistory(t, store, uint64(100+lag), history)
	}
}

func TestWeaveValidation(t *testing.T) {
	store := NewMemStore()
	_, _, err := Weave(store, WeaveInput{Blob: 1, Version: 1, StartChunk: 2, EndChunk: 2})
	if err == nil {
		t.Error("empty range accepted")
	}
	_, _, err = Weave(store, WeaveInput{
		Blob: 1, Version: 1, StartChunk: 0, EndChunk: 2,
		SizeChunks: 2, Leaves: make([]ChunkRef, 1),
	})
	if err == nil {
		t.Error("leaf count mismatch accepted")
	}
	_, _, err = Weave(store, WeaveInput{
		Blob: 1, Version: 1, StartChunk: 0, EndChunk: 4,
		SizeChunks: 2, Leaves: make([]ChunkRef, 4),
	})
	if err == nil {
		t.Error("size below write end accepted")
	}
	_, _, err = Weave(store, WeaveInput{
		Blob: 1, Version: 3, StartChunk: 0, EndChunk: 1,
		SizeChunks: 1, Leaves: make([]ChunkRef, 1),
		InFlight:   []WriteDesc{{Version: 5, StartChunk: 0, EndChunk: 1, SizeChunks: 1}},
		PubVersion: 0,
	})
	if err == nil {
		t.Error("in-flight version beyond own version accepted")
	}
}

// Randomized model check: random histories, random publish lags, verify
// every version byte-for-byte (chunk-owner granularity) against the model.
func TestWeaveRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nWrites := 1 + rng.Intn(12)
		history := make([]modelWrite, nWrites)
		var curEnd uint64
		for i := range history {
			var start, end uint64
			switch rng.Intn(3) {
			case 0: // append at current end
				start = curEnd
				end = start + 1 + uint64(rng.Intn(6))
			case 1: // overwrite inside existing data
				if curEnd == 0 {
					start = 0
				} else {
					start = uint64(rng.Intn(int(curEnd)))
				}
				end = start + 1 + uint64(rng.Intn(5))
			default: // sparse write possibly past the end
				start = uint64(rng.Intn(int(curEnd) + 4))
				end = start + 1 + uint64(rng.Intn(8))
			}
			history[i] = modelWrite{version: uint64(i + 1), start: start, end: end}
			if end > curEnd {
				curEnd = end
			}
		}
		lag := rng.Intn(nWrites + 1)
		store := NewMemStore()
		blob := uint64(1000 + trial)
		weaveHistory(t, store, blob, history, lag)
		verifyHistory(t, store, blob, history)
	}
}

func TestCollectLeavesSubranges(t *testing.T) {
	history := historyFromSpec([][2]uint64{{0, 10}, {3, 7}, {10, 20}})
	store := NewMemStore()
	weaveHistory(t, store, 5, history, 0)
	// Sub-range of the latest version.
	refs, err := CollectLeaves(store, 5, 3, 20, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 7 {
		t.Fatalf("got %d refs", len(refs))
	}
	wantOwners := []uint64{2, 2, 1, 1, 1, 3, 3} // chunks 5..11
	for i, want := range wantOwners {
		if refs[i].Key.Version != want {
			t.Errorf("chunk %d owner = v%d, want v%d", 5+i, refs[i].Key.Version, want)
		}
	}
	// Empty range.
	refs, err = CollectLeaves(store, 5, 3, 20, 4, 4)
	if err != nil || refs != nil {
		t.Errorf("empty range: %v, %v", refs, err)
	}
	// Out of bounds.
	if _, err := CollectLeaves(store, 5, 3, 20, 15, 25); err == nil {
		t.Error("out-of-bounds collect accepted")
	}
	// Inverted.
	if _, err := CollectLeaves(store, 5, 3, 20, 9, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestCollectLeavesMissingNode(t *testing.T) {
	store := NewMemStore()
	if _, err := CollectLeaves(store, 1, 1, 4, 0, 4); err == nil {
		t.Error("collect on empty store succeeded")
	}
}

// Weave must emit O(range + log size) nodes, not O(size): the efficiency
// claim behind "only the difference is stored".
func TestWeaveNodeCountLogarithmic(t *testing.T) {
	store := NewMemStore()
	const size = 1 << 16
	// v1 writes everything.
	in := WeaveInput{
		Blob: 2, Version: 1, StartChunk: 0, EndChunk: size,
		SizeChunks: size, Leaves: make([]ChunkRef, size),
	}
	nodes, _, err := Weave(store, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	// v2 writes one chunk: expect ~log2(size) inner nodes + 1 leaf.
	in2 := WeaveInput{
		Blob: 2, Version: 2, StartChunk: 12345, EndChunk: 12346,
		SizeChunks: size, Leaves: make([]ChunkRef, 1),
		PubVersion: 1, PubSizeChunks: size,
	}
	nodes2, _, err := Weave(store, in2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes2) > 18 {
		t.Errorf("single-chunk write produced %d nodes, want <= 18", len(nodes2))
	}
}

func BenchmarkWeaveSingleChunkIn64K(b *testing.B) {
	store := NewMemStore()
	const size = 1 << 16
	in := WeaveInput{Blob: 3, Version: 1, StartChunk: 0, EndChunk: size,
		SizeChunks: size, Leaves: make([]ChunkRef, size)}
	nodes, _, err := Weave(store, in)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.PutNodes(nodes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in2 := WeaveInput{
			Blob: 3, Version: uint64(2 + i), StartChunk: 777, EndChunk: 778,
			SizeChunks: size, Leaves: make([]ChunkRef, 1),
			PubVersion: 1, PubSizeChunks: size,
		}
		if _, _, err := Weave(store, in2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectLeaves1K(b *testing.B) {
	store := NewMemStore()
	const size = 1 << 12
	in := WeaveInput{Blob: 4, Version: 1, StartChunk: 0, EndChunk: size,
		SizeChunks: size, Leaves: make([]ChunkRef, size)}
	nodes, _, err := Weave(store, in)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.PutNodes(nodes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectLeaves(store, 4, 1, size, 0, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
