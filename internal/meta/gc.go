package meta

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chunk"
)

// Garbage-collection liveness analysis over the versioned segment trees.
//
// Trees are persistent: version v's tree references untouched subtrees of
// older versions by their version label, so a node or chunk of a pruned
// version may still be live. The key structural fact this file relies on:
// if a node (or leaf chunk) labeled u is reachable from ANY retained
// version w >= floor >= u, it is also reachable from the floor version's
// tree — the range it covers was untouched in (u, w], hence untouched in
// (u, floor], so descending the floor tree at that position resolves to
// the same label.
//
// Consequently, when the retention floor advances from F1 to F2, the
// complete dead set is a diff of the two adjacent floor trees:
//
//	dead = (reachable(F1)  ∪  owned(v) for v in (F1, F2))  \  reachable(F2)
//
// reachable(F1) covers everything with labels <= F1 that survived earlier
// sweeps (exactly because it was reachable from the old floor); the owned
// subgraphs cover the versions pruned by this advance; and anything still
// referenced by any retained snapshot is inside reachable(F2).

// LiveSet is a set of tree nodes plus the chunk references their leaves
// carry (the reference keeps the replica addresses a delete must visit).
type LiveSet struct {
	Nodes  map[NodeKey]struct{}
	Chunks map[chunk.Key]ChunkRef
	// Leaves, when enabled with TrackLeaves, maps each live chunk to every
	// leaf node referencing it (abort repair copies leaves, so one chunk
	// can appear under several versions). The repair engine piggybacks on
	// the liveness walk through this: the same batched descent that powers
	// GC yields the chunk → replica-set placement map AND the exact leaf
	// set a replica patch must rewrite. Nil (untracked) for plain GC.
	Leaves map[chunk.Key][]NodeKey
}

// NewLiveSet returns an empty set.
func NewLiveSet() *LiveSet {
	return &LiveSet{
		Nodes:  make(map[NodeKey]struct{}),
		Chunks: make(map[chunk.Key]ChunkRef),
	}
}

// TrackLeaves enables per-chunk leaf-key recording on subsequent walks
// (repair's placement scan) and returns the set for chaining.
func (l *LiveSet) TrackLeaves() *LiveSet {
	if l.Leaves == nil {
		l.Leaves = make(map[chunk.Key][]NodeKey)
	}
	return l
}

// Has reports whether the node key is in the set.
func (l *LiveSet) Has(k NodeKey) bool {
	_, ok := l.Nodes[k]
	return ok
}

// HasChunk reports whether the chunk key is in the set.
func (l *LiveSet) HasChunk(k chunk.Key) bool {
	_, ok := l.Chunks[k]
	return ok
}

// CollectLive walks the full tree of one version (a retention floor) and
// returns every reachable node key and leaf chunk reference. Definitively
// missing nodes (ErrNodeNotFound from every replica) are tolerated by
// skipping their subtree: an abort-repair that crashed half-way leaves
// holes, and a hole references nothing. Any OTHER failure — a replica
// unreachable, an RPC timeout — aborts the walk with an error: an
// incomplete live set would make the sweep delete data that retained
// snapshots still reference. sizeChunks is the blob size in chunks at
// that version.
func CollectLive(ctx context.Context, store Store, blob, version, sizeChunks uint64) (*LiveSet, error) {
	live := NewLiveSet()
	if err := CollectLiveInto(ctx, live, store, blob, version, sizeChunks); err != nil {
		return nil, err
	}
	return live, nil
}

// CollectLiveInto folds one version's reachable set into an existing
// LiveSet. Unioning several versions' walks this way is cheap: subtrees
// shared between versions short-circuit on the already-visited check, so
// the total cost is proportional to the number of distinct live nodes,
// not versions times tree size. Walking every retained version (rather
// than trusting the floor tree alone) is what makes the sweep safe when
// the floor lands on an aborted version whose abort-repair never wove a
// tree — an empty or partial floor tree then under-counts liveness, and
// the union walk of the newer retained versions still protects everything
// they reference.
func CollectLiveInto(ctx context.Context, live *LiveSet, store Store, blob, version, sizeChunks uint64) error {
	if version == 0 || sizeChunks == 0 {
		return nil
	}
	w := gcWalker{
		ctx:    ctx,
		store:  store,
		set:    live,
		desc:   "liveness",
		follow: func(childVer uint64) bool { return childVer != ZeroVersion },
	}
	return w.walk([]NodeKey{{Blob: blob, Version: version, Off: 0, Size: NextPow2(sizeChunks)}})
}

// gcBatch bounds the node keys fetched per walk round (the GC twin of the
// read path's specBudget): a full-floor walk over a huge blob degrades
// into several bounded rounds instead of one unbounded request.
const gcBatch = specBudget

// gcWalker descends segment trees for the GC analyses in level-order
// batched rounds: each round's frontier goes to the store in one GetNodes
// call (the DHT client turns that into one RPC per metadata provider), so
// a full-tree walk costs O(providers × tree depth) round trips instead of
// the O(nodes) a node-at-a-time walk paid. follow filters which child
// labels are descended (everything non-zero for the liveness walk, only
// the owner's label for the owned walk).
//
// The destructive-use contract is preserved PER KEY: the batched read
// cannot distinguish "absent from the replica that answered" from "its
// replica was unreachable", so every nil entry is re-asked through
// GetNode, which consults the full ring and returns ErrNodeNotFound only
// on definitive absence (a prunable hole) — any transport failure aborts
// the walk instead, because an incomplete live set would let the sweep
// delete data retained snapshots still reference. Genuine holes are rare
// (a crashed abort-repair), so the follow-ups stay off the hot path.
type gcWalker struct {
	ctx    context.Context // the walking pass's operation context
	store  Store
	set    *LiveSet
	desc   string
	follow func(childVer uint64) bool
}

func (w *gcWalker) walk(frontier []NodeKey) error {
	pending := frontier
	for len(pending) > 0 {
		batch := pending
		if len(batch) > gcBatch {
			batch, pending = batch[:gcBatch], pending[gcBatch:]
		} else {
			pending = nil
		}
		nodes, err := w.store.GetNodes(w.ctx, batch)
		if err != nil {
			return fmt.Errorf("meta: %s walk: %w", w.desc, err)
		}
		if len(nodes) != len(batch) {
			return fmt.Errorf("meta: %s walk: store returned %d nodes for %d keys", w.desc, len(nodes), len(batch))
		}
		for i, node := range nodes {
			key := batch[i]
			if node == nil {
				n, err := w.store.GetNode(w.ctx, key)
				if errors.Is(err, ErrNodeNotFound) {
					continue // definitive hole (crashed writer); references nothing
				}
				if err != nil {
					return fmt.Errorf("meta: %s walk at %s: %w", w.desc, key, err)
				}
				node = n
			}
			w.set.Nodes[key] = struct{}{}
			if node.Leaf {
				if !node.Chunk.IsZero() {
					w.set.Chunks[node.Chunk.Key] = node.Chunk
					if w.set.Leaves != nil {
						// Uniqueness holds because the visited check above
						// admits each node key at most once per walk.
						w.set.Leaves[node.Chunk.Key] = append(w.set.Leaves[node.Chunk.Key], key)
					}
				}
				continue
			}
			half := key.Size / 2
			children := [2]NodeKey{
				{Blob: key.Blob, Version: node.LeftVer, Off: key.Off, Size: half},
				{Blob: key.Blob, Version: node.RightVer, Off: key.Off + half, Size: half},
			}
			for _, ck := range children {
				if !w.follow(ck.Version) || w.set.Has(ck) {
					continue // zero subtree, filtered label, or shared subtree already visited
				}
				pending = append(pending, ck)
			}
		}
	}
	return nil
}

// AddOwned folds version v's owned subgraph into the set: exactly the
// nodes its writer wove, i.e. those labeled with the version. Within a
// version's tree every owned node's parent is also owned (Weave builds
// parents of everything it builds), so the enumeration descends from the
// root and only follows children carrying the same version label.
// Definitively missing nodes are skipped; transport failures abort, as in
// CollectLive. Like CollectLive the walk is level-order and batched.
func (l *LiveSet) AddOwned(ctx context.Context, store Store, blob, version, sizeChunks uint64) error {
	if version == 0 || sizeChunks == 0 {
		return nil
	}
	w := gcWalker{
		ctx:    ctx,
		store:  store,
		set:    l,
		desc:   "owned",
		follow: func(childVer uint64) bool { return childVer == version },
	}
	return w.walk([]NodeKey{{Blob: blob, Version: version, Off: 0, Size: NextPow2(sizeChunks)}})
}

// VersionNodes enumerates one version's owned subgraph standalone.
func VersionNodes(ctx context.Context, store Store, blob, version, sizeChunks uint64) ([]NodeKey, []ChunkRef, error) {
	set := NewLiveSet()
	if err := set.AddOwned(ctx, store, blob, version, sizeChunks); err != nil {
		return nil, nil, err
	}
	nodes := make([]NodeKey, 0, len(set.Nodes))
	for k := range set.Nodes {
		nodes = append(nodes, k)
	}
	chunks := make([]ChunkRef, 0, len(set.Chunks))
	for _, c := range set.Chunks {
		chunks = append(chunks, c)
	}
	return nodes, chunks, nil
}

// DiffDead returns the members of candidates absent from live: the nodes
// and chunks that die when the retention floor advances. Chunk references
// are deduplicated by key (abort-repair copies leaves, so one chunk can
// appear under several versions' leaves).
func DiffDead(candidates, live *LiveSet) (deadNodes []NodeKey, deadChunks []ChunkRef) {
	for k := range candidates.Nodes {
		if !live.Has(k) {
			deadNodes = append(deadNodes, k)
		}
	}
	for k, c := range candidates.Chunks {
		if !live.HasChunk(k) {
			deadChunks = append(deadChunks, c)
		}
	}
	return deadNodes, deadChunks
}
