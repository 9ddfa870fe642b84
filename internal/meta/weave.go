package meta

import (
	"context"
	"fmt"
	"sort"
)

// WeaveInput carries everything a writer needs to build the metadata tree
// of its new version without coordinating with concurrent writers.
type WeaveInput struct {
	Blob    uint64
	Version uint64
	// [StartChunk, EndChunk) is the chunk range this write covers.
	StartChunk uint64
	EndChunk   uint64
	// SizeChunks is the blob size in chunks after this write (assigned by
	// the version manager).
	SizeChunks uint64
	// Leaves holds the chunk references for [StartChunk, EndChunk), in
	// order.
	Leaves []ChunkRef
	// InFlight describes writes with versions in (PubVersion, Version)
	// that were assigned but not yet published when this write was
	// assigned. Order does not matter; Weave sorts internally.
	InFlight []WriteDesc
	// PubVersion / PubSizeChunks identify the snapshot that was published
	// at assign time (version 0 with zero chunks for a fresh blob).
	PubVersion    uint64
	PubSizeChunks uint64
}

// WeaveCtx computes the new metadata tree nodes for one write. It returns the
// nodes to store (leaves and inner nodes, all labeled with in.Version) and
// the new root key.
//
// The algorithm descends the tree shape of the new version. Subtrees that
// intersect the written range are rebuilt; untouched subtrees are
// *referenced* by the version label of the most recent concurrent write
// that intersects them (known from the in-flight descriptors — no waiting,
// no reads), or found by descending the published tree, or labeled
// ZeroVersion when they lie beyond all data ever written.
//
// store is only consulted to descend the *published* tree; nodes of
// unpublished concurrent versions are never read, which is exactly what
// decouples concurrent writers in BlobSeer. ctx is the write's operation
// context: a traced write attributes those descent fetches to its trace.
func WeaveCtx(ctx context.Context, store Store, in WeaveInput) ([]*Node, NodeKey, error) {
	if in.EndChunk <= in.StartChunk {
		return nil, NodeKey{}, fmt.Errorf("meta: empty write range [%d,%d)", in.StartChunk, in.EndChunk)
	}
	if uint64(len(in.Leaves)) != in.EndChunk-in.StartChunk {
		return nil, NodeKey{}, fmt.Errorf("meta: %d leaves for range of %d chunks",
			len(in.Leaves), in.EndChunk-in.StartChunk)
	}
	if in.SizeChunks < in.EndChunk {
		return nil, NodeKey{}, fmt.Errorf("meta: size %d chunks below write end %d", in.SizeChunks, in.EndChunk)
	}
	w := &weaver{ctx: ctx, store: store, in: in}
	// Newest first: the latest intersecting version wins a reference.
	w.inflight = append(w.inflight, in.InFlight...)
	sort.Slice(w.inflight, func(i, j int) bool { return w.inflight[i].Version > w.inflight[j].Version })
	for _, d := range w.inflight {
		if d.Version >= in.Version || d.Version <= in.PubVersion {
			return nil, NodeKey{}, fmt.Errorf("meta: in-flight version %d outside (%d,%d)",
				d.Version, in.PubVersion, in.Version)
		}
	}

	rootSize := NextPow2(in.SizeChunks)
	if _, err := w.build(0, rootSize); err != nil {
		return nil, NodeKey{}, err
	}
	root := NodeKey{Blob: in.Blob, Version: in.Version, Off: 0, Size: rootSize}
	return w.out, root, nil
}

// Weave is WeaveCtx with a background context.
func Weave(store Store, in WeaveInput) ([]*Node, NodeKey, error) {
	return WeaveCtx(context.Background(), store, in)
}

type weaver struct {
	ctx      context.Context // the write's operation context
	store    Store
	in       WeaveInput
	inflight []WriteDesc
	out      []*Node
}

func overlaps(aLo, aHi, bLo, bHi uint64) bool { return aLo < bHi && bLo < aHi }

func (w *weaver) emit(n *Node) { w.out = append(w.out, n) }

// build creates the node spanning [off, off+size) at the new version and
// returns its version label (always in.Version). It is only invoked for
// subtrees that must exist at the new version.
func (w *weaver) build(off, size uint64) (uint64, error) {
	key := NodeKey{Blob: w.in.Blob, Version: w.in.Version, Off: off, Size: size}
	if size == 1 {
		if off < w.in.StartChunk || off >= w.in.EndChunk {
			return 0, fmt.Errorf("meta: internal: building leaf %d outside write range", off)
		}
		w.emit(&Node{Key: key, Leaf: true, Chunk: w.in.Leaves[off-w.in.StartChunk]})
		return w.in.Version, nil
	}
	half := size / 2
	left, err := w.child(off, half)
	if err != nil {
		return 0, err
	}
	right, err := w.child(off+half, half)
	if err != nil {
		return 0, err
	}
	w.emit(&Node{Key: key, LeftVer: left, RightVer: right})
	return w.in.Version, nil
}

// child resolves the version label for the subtree [off, off+size): builds
// it fresh when the write touches it, otherwise references an existing (or
// zero) subtree.
func (w *weaver) child(off, size uint64) (uint64, error) {
	if overlaps(off, off+size, w.in.StartChunk, w.in.EndChunk) {
		return w.build(off, size)
	}
	return w.resolveRef(off, size)
}

// resolveRef finds the version label of the untouched subtree
// [off, off+size). Preference order:
//
//  1. the newest in-flight write whose range intersects the subtree —
//     *provided* the subtree fits inside that version's tree shape;
//  2. the published tree, by descending from the published root;
//  3. ZeroVersion for ranges beyond all data.
//
// A subtree can intersect an in-flight write yet sit *above* that write's
// root (tree growth): then no single node exists to reference and the
// weaver materializes a spine node at the new version whose children are
// resolved recursively.
func (w *weaver) resolveRef(off, size uint64) (uint64, error) {
	for _, d := range w.inflight {
		if !overlaps(off, off+size, d.StartChunk, d.EndChunk) {
			continue
		}
		if off+size <= d.RootSize() {
			// The node (off,size) is inside d's tree shape and intersects
			// d's write, so writer d created exactly this node.
			return d.Version, nil
		}
		// Spine above d's root: materialize at our version.
		return w.spine(off, size)
	}
	// No in-flight intersection. Anything beyond the published size has
	// never been written.
	if off >= w.in.PubSizeChunks {
		return ZeroVersion, nil
	}
	if off+size <= NextPow2(w.in.PubSizeChunks) {
		return w.descendPublished(off, size)
	}
	// Spine above the published root.
	return w.spine(off, size)
}

// spine materializes an inner node at the new version for a subtree that
// exists in no single older tree (the tree grew past every older root).
func (w *weaver) spine(off, size uint64) (uint64, error) {
	if size == 1 {
		// A single untouched chunk always fits inside the tree shape of
		// whichever version wrote it; reaching here means bookkeeping is
		// inconsistent.
		return 0, fmt.Errorf("meta: internal: spine at leaf granularity for chunk %d", off)
	}
	half := size / 2
	left, err := w.resolveRef(off, half)
	if err != nil {
		return 0, err
	}
	right, err := w.resolveRef(off+half, half)
	if err != nil {
		return 0, err
	}
	key := NodeKey{Blob: w.in.Blob, Version: w.in.Version, Off: off, Size: size}
	w.emit(&Node{Key: key, LeftVer: left, RightVer: right})
	return w.in.Version, nil
}

// descendPublished walks the published tree from its root down to the node
// spanning exactly [off, off+size) and returns that node's version label.
func (w *weaver) descendPublished(off, size uint64) (uint64, error) {
	if w.in.PubVersion == 0 || w.in.PubSizeChunks == 0 {
		return ZeroVersion, nil
	}
	curVer := w.in.PubVersion
	curOff := uint64(0)
	curSize := NextPow2(w.in.PubSizeChunks)
	for {
		if curOff == off && curSize == size {
			return curVer, nil
		}
		if curSize <= size {
			return 0, fmt.Errorf("meta: internal: descent overshot looking for [%d,%d)", off, off+size)
		}
		if curVer == ZeroVersion {
			// Inside a zero subtree every descendant is zero.
			return ZeroVersion, nil
		}
		node, err := w.store.GetNode(w.ctx, NodeKey{Blob: w.in.Blob, Version: curVer, Off: curOff, Size: curSize})
		if err != nil {
			return 0, fmt.Errorf("meta: descending published tree: %w", err)
		}
		if node.Leaf {
			return 0, fmt.Errorf("meta: internal: hit leaf while seeking [%d,%d)", off, off+size)
		}
		half := curSize / 2
		if off < curOff+half {
			curVer = node.LeftVer
			curSize = half
		} else {
			curVer = node.RightVer
			curOff += half
			curSize = half
		}
	}
}
