package meta

import (
	"context"
	"fmt"
)

// specBudget bounds the number of node keys fetched per descent round.
// Beyond the budget the enumeration truncates breadth-first, so a huge
// read degrades gracefully into plain level-order rounds instead of
// building unbounded requests.
const specBudget = 1 << 14

// specObserver is an optional Store refinement: stores that account for
// the descent's same-label speculation (the DHT client, which exports the
// counts through RPCStats) receive each fetch round's expansion hit/miss
// totals.
type specObserver interface {
	observeSpec(hits, misses int64)
}

// specDepthAdvisor is an optional Store refinement: the store recommends
// how many levels below the frontier the same-label expansion may probe
// this round. The DHT client implements it adaptively — when RPCStats'
// SpecHits/SpecMisses show the guess keeps missing (a fragmented version
// history), it shrinks the depth so rounds stop paying for keys that come
// back absent, and re-deepens once the guesses start landing again.
// Stores without the refinement get the full budget-bounded expansion.
type specDepthAdvisor interface {
	specExpansionDepth() int
}

// Peeker is an optional Store refinement: PeekNodes resolves keys from
// local, network-free state — the DHT client's LRU cache, or the whole
// map for an in-process store. The result is aligned with keys; nil
// entries are merely "not known locally", never an authoritative
// absence. The batched descent drains the peek before every round so a
// warm cache costs zero RPCs and the network fetch covers only the
// genuine miss boundary.
type Peeker interface {
	PeekNodes(keys []NodeKey) []*Node
}

// span is a subtree whose version label is known (from its parent, or
// from the version manager for the root) and which overlaps the
// collected chunk range.
type span struct {
	ver  uint64
	off  uint64
	size uint64
}

// CollectLeavesCtx resolves the chunk references for chunk range [a, b) of
// the given published version by descending its segment tree. sizeChunks
// is the blob size (in chunks) at that version, as reported by the version
// manager. Never-written ranges come back as zero ChunkRefs.
//
// The descent is level-order and batched: each round's frontier of node
// keys goes to the store in one GetNodes call (the DHT client groups the
// keys by owner, one RPC per metadata provider per round), so a cold read
// of C chunks costs O(providers × tree depth) round trips instead of the
// O(C) a node-at-a-time walk pays. Before each round the frontier is
// pushed as deep as it will go through the store's local Peeker state, so
// cached subtrees never touch the network at all.
//
// Each network round additionally expands every frontier subtree under
// the guess that its descendants carry the same version label. The guess
// exploits the structure versioning gives the tree: a writer labels every
// node it weaves with its own version, so any subtree last touched by one
// write — the common case for freshly written data and for all untouched
// regions — is uniformly labeled, and one round resolves it completely. A
// wrong guess is harmless: a speculative key simply comes back absent, is
// never consulted (the parent's actual child label routes the walk), and
// the differently-labeled subtree forms the next round's frontier. Rounds
// are therefore bounded by the tree depth, reached only by pathologically
// fragmented histories.
//
// ctx is the read's operation context: a traced read attributes every
// descent round's fetches to its trace.
func CollectLeavesCtx(ctx context.Context, store Store, blob, version, sizeChunks, a, b uint64) ([]ChunkRef, error) {
	refs, _, err := collectLeaves(ctx, store, blob, version, sizeChunks, a, b, false)
	return refs, err
}

// CollectLeaves is CollectLeavesCtx with a background context.
func CollectLeaves(store Store, blob, version, sizeChunks, a, b uint64) ([]ChunkRef, error) {
	return CollectLeavesCtx(context.Background(), store, blob, version, sizeChunks, a, b)
}

// CollectLeavesWithKeys is CollectLeavesCtx additionally reporting each
// resolved leaf's node key (zero-valued for never-written chunks). The
// read path uses the keys to refresh a leaf whose cached replica list
// went stale — every address failing is the signature of a descriptor the
// repair engine has since patched.
func CollectLeavesWithKeys(ctx context.Context, store Store, blob, version, sizeChunks, a, b uint64) ([]ChunkRef, []NodeKey, error) {
	return collectLeaves(ctx, store, blob, version, sizeChunks, a, b, true)
}

func collectLeaves(ctx context.Context, store Store, blob, version, sizeChunks, a, b uint64, withKeys bool) ([]ChunkRef, []NodeKey, error) {
	if b < a {
		return nil, nil, fmt.Errorf("meta: invalid chunk range [%d,%d)", a, b)
	}
	if a == b {
		return nil, nil, nil
	}
	if b > sizeChunks {
		return nil, nil, fmt.Errorf("meta: chunk range [%d,%d) beyond blob size %d", a, b, sizeChunks)
	}
	out := make([]ChunkRef, b-a) // zero ChunkRefs: never-written ranges stay as made
	var outKeys []NodeKey
	if withKeys {
		outKeys = make([]NodeKey, b-a)
	}
	if version == ZeroVersion {
		return out, outKeys, nil
	}
	c := &collector{ctx: ctx, store: store, blob: blob, a: a, b: b, out: out, outKeys: outKeys}
	if p, ok := store.(Peeker); ok {
		c.peeker = p
	}
	frontier := []span{{ver: version, off: 0, size: NextPow2(sizeChunks)}}
	for len(frontier) > 0 {
		var err error
		if frontier, err = c.peekRound(frontier); err != nil {
			return nil, nil, err
		}
		if len(frontier) == 0 {
			break
		}
		if frontier, err = c.fetchRound(frontier); err != nil {
			return nil, nil, err
		}
	}
	return out, outKeys, nil
}

type collector struct {
	ctx     context.Context // the read's operation context
	store   Store
	peeker  Peeker
	blob    uint64
	a, b    uint64
	out     []ChunkRef
	outKeys []NodeKey // nil unless the caller asked for leaf keys

	// Per-round fetch state: keys requested this round and their results.
	keys  []NodeKey
	index map[NodeKey]int
	nodes []*Node
	next  []span
}

func (c *collector) key(s span) NodeKey {
	return NodeKey{Blob: c.blob, Version: s.ver, Off: s.off, Size: s.size}
}

// peekRound walks the frontier as deep as the store's local state allows
// without touching the network, returning the miss boundary: the spans
// whose nodes must be fetched. Stores without a Peeker pass the frontier
// through untouched.
func (c *collector) peekRound(frontier []span) ([]span, error) {
	if c.peeker == nil {
		return frontier, nil
	}
	var misses []span
	for len(frontier) > 0 {
		keys := make([]NodeKey, len(frontier))
		for i, s := range frontier {
			keys[i] = c.key(s)
		}
		nodes := c.peeker.PeekNodes(keys)
		if len(nodes) != len(keys) {
			return nil, fmt.Errorf("meta: peek returned %d nodes for %d keys", len(nodes), len(keys))
		}
		var deeper []span
		for i, s := range frontier {
			if nodes[i] == nil {
				misses = append(misses, s)
				continue
			}
			children, err := c.resolve(s, nodes[i])
			if err != nil {
				return nil, err
			}
			deeper = append(deeper, children...)
		}
		frontier = deeper
	}
	return misses, nil
}

// fetchRound fetches one frontier (plus same-label speculative
// descendants) in a single batched store operation and walks the
// results, returning the next frontier: the roots of every subtree whose
// label differs from its parent's, plus any subtree the fetch budget cut
// off.
func (c *collector) fetchRound(frontier []span) ([]span, error) {
	c.keys = c.keys[:0]
	c.nodes = nil
	c.next = nil
	if c.index == nil {
		c.index = make(map[NodeKey]int)
	} else {
		clear(c.index)
	}

	// Enumerate breadth-first so a budget cut drops the deepest
	// speculative keys first, never a frontier root. Keys enumerated past
	// the frontier roots are the same-label speculation; their count
	// marks where the hit/miss accounting below starts. The expansion
	// depth is capped by the store's advice when it gives any: a
	// fragmented history keeps missing on deep same-label guesses, and the
	// adaptive depth turns those wasted keys off instead of probing the
	// full subtree every round.
	maxDepth := specBudget // effectively unbounded; budget is the real cap
	if adv, ok := c.store.(specDepthAdvisor); ok {
		maxDepth = adv.specExpansionDepth()
	}
	frontierKeys := 0
	type qent struct {
		s     span
		depth int
	}
	queue := make([]qent, 0, 2*len(frontier))
	for _, s := range frontier {
		queue = append(queue, qent{s: s})
	}
	for qi := 0; qi < len(queue) && len(c.keys) < specBudget; qi++ {
		s, depth := queue[qi].s, queue[qi].depth
		k := c.key(s)
		if _, dup := c.index[k]; dup {
			continue
		}
		c.index[k] = len(c.keys)
		c.keys = append(c.keys, k)
		if qi < len(frontier) {
			frontierKeys++
		}
		if s.size > 1 && depth < maxDepth {
			half := s.size / 2
			if overlaps(s.off, s.off+half, c.a, c.b) {
				queue = append(queue, qent{s: span{ver: s.ver, off: s.off, size: half}, depth: depth + 1})
			}
			if overlaps(s.off+half, s.off+s.size, c.a, c.b) {
				queue = append(queue, qent{s: span{ver: s.ver, off: s.off + half, size: half}, depth: depth + 1})
			}
		}
	}
	var err error
	c.nodes, err = c.store.GetNodes(c.ctx, c.keys)
	if err != nil {
		return nil, err
	}
	if len(c.nodes) != len(c.keys) {
		return nil, fmt.Errorf("meta: store returned %d nodes for %d keys", len(c.nodes), len(c.keys))
	}
	if so, ok := c.store.(specObserver); ok {
		var hits, misses int64
		for _, n := range c.nodes[frontierKeys:] {
			if n != nil {
				hits++
			} else {
				misses++
			}
		}
		so.observeSpec(hits, misses)
	}
	for _, s := range frontier {
		if err := c.walk(s); err != nil {
			return nil, err
		}
	}
	return c.next, nil
}

// walk resolves the subtree rooted at s against this round's fetched
// nodes. s's label is authoritative (named by its parent), so a missing
// root here is a real failure, retried once through the single-get path
// to distinguish "absent everywhere" from "replica unreachable".
func (c *collector) walk(s span) error {
	k := c.key(s)
	i, fetched := c.index[k]
	if !fetched {
		// Cut off by the round budget; its label is known, so it simply
		// heads the next round's frontier.
		c.next = append(c.next, s)
		return nil
	}
	node := c.nodes[i]
	if node == nil {
		n, err := c.store.GetNode(c.ctx, k)
		if err != nil {
			return fmt.Errorf("meta: descent at %s: %w", k, err)
		}
		node = n
	}
	children, err := c.resolve(s, node)
	if err != nil {
		return err
	}
	for _, ch := range children {
		if ch.ver == s.ver {
			// Same label: the speculative fetch covered it; keep walking
			// within this round.
			if err := c.walk(ch); err != nil {
				return err
			}
			continue
		}
		// Label boundary: this child's subtree belongs to the next round.
		c.next = append(c.next, ch)
	}
	return nil
}

// resolve consumes one fetched node: leaves land in the output, inner
// nodes yield their in-range, non-zero children.
func (c *collector) resolve(s span, node *Node) ([]span, error) {
	if node.Leaf {
		if s.size != 1 {
			return nil, fmt.Errorf("meta: leaf %s with span %d", c.key(s), s.size)
		}
		c.out[s.off-c.a] = node.Chunk
		if c.outKeys != nil {
			c.outKeys[s.off-c.a] = c.key(s)
		}
		return nil, nil
	}
	if s.size == 1 {
		return nil, fmt.Errorf("meta: inner node %s at leaf granularity", c.key(s))
	}
	half := s.size / 2
	candidates := [2]span{
		{ver: node.LeftVer, off: s.off, size: half},
		{ver: node.RightVer, off: s.off + half, size: half},
	}
	children := make([]span, 0, 2)
	for _, ch := range candidates {
		if ch.ver == ZeroVersion || !overlaps(ch.off, ch.off+ch.size, c.a, c.b) {
			continue // zero subtree (out is pre-zeroed) or outside the range
		}
		children = append(children, ch)
	}
	return children, nil
}
