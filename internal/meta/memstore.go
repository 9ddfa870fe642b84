package meta

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// MemStore is a process-local Store used by tests and by single-process
// deployments that do not need a metadata DHT.
type MemStore struct {
	mu    sync.RWMutex
	nodes map[NodeKey]*Node
}

// NewMemStore returns an empty in-memory node store.
func NewMemStore() *MemStore {
	return &MemStore{nodes: make(map[NodeKey]*Node)}
}

// PutNodes stores the batch. Re-storing an existing key with identical
// content is tolerated (idempotent retries); a conflicting rewrite is a
// protocol violation and returns an error — EXCEPT when the divergence is
// only a leaf's replica list: the repair engine patches those in place
// (see PatchReplicas), so a writer's late idempotent retry carrying the
// pre-patch placement must not error, and must not clobber the patch
// either. The stored (patched) leaf wins.
func (s *MemStore) PutNodes(nodes []*Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range nodes {
		if old, ok := s.nodes[n.Key]; ok {
			if !nodesEquivalent(old, n) {
				return fmt.Errorf("meta: conflicting rewrite of immutable node %s", n.Key)
			}
			continue
		}
		cp := *n
		s.nodes[n.Key] = &cp
	}
	return nil
}

// PatchReplicas rewrites leaf replica lists in place (ServerStore; see
// ReplicaPatch). A patch applies only to an existing leaf that still
// references the named chunk; anything else is skipped, not an error.
func (s *MemStore) PatchReplicas(patches []ReplicaPatch) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range patches {
		p := &patches[i]
		if len(p.Providers) == 0 {
			// An empty replica list would flip the leaf to IsZero — reads
			// would synthesize zeros and the GC liveness walk would stop
			// protecting the chunk's bytes. No legitimate patch empties a
			// placement (repair skips no-survivor chunks), so this can
			// only be corruption or a bug (the decoders already fail on
			// a provider count past MaxReplicas): refuse it.
			continue
		}
		old, ok := s.nodes[p.Key]
		if !ok || !old.Leaf || old.Chunk.Key != p.Chunk {
			continue
		}
		if slices.Equal(old.Chunk.Providers, p.Providers) {
			continue // idempotent re-patch
		}
		cp := *old
		cp.Chunk.Providers = append([]string(nil), p.Providers...)
		s.nodes[p.Key] = &cp
		n++
	}
	return n
}

// GetNode fetches one node (Store; the context is unused locally).
func (s *MemStore) GetNode(_ context.Context, key NodeKey) (*Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeNotFound, key)
	}
	cp := *n
	return &cp, nil
}

// GetNodes fetches a batch under one lock acquisition. Entries for absent
// keys are nil.
func (s *MemStore) GetNodes(_ context.Context, keys []NodeKey) ([]*Node, error) {
	out := make([]*Node, len(keys))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, k := range keys {
		if n, ok := s.nodes[k]; ok {
			cp := *n
			out[i] = &cp
		}
	}
	return out, nil
}

// PeekNodes implements Peeker: the whole store is local, so peeking is
// just GetNodes — descents over a MemStore never leave process memory.
func (s *MemStore) PeekNodes(keys []NodeKey) []*Node {
	out, _ := s.GetNodes(context.Background(), keys)
	return out
}

// Len reports the number of stored nodes.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// DeleteNodes removes the given keys (absent keys are ignored: deletes are
// idempotent and replicas may hold different subsets). It returns how many
// nodes were actually dropped.
func (s *MemStore) DeleteNodes(keys []NodeKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if _, ok := s.nodes[k]; ok {
			delete(s.nodes, k)
			n++
		}
	}
	return n
}

// Snapshot returns a copy of every stored node (persistence snapshots).
func (s *MemStore) Snapshot() []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		cp := *n
		out = append(out, &cp)
	}
	return out
}

// DeleteBlob removes every node of one blob (full blob deletion), returning
// the number dropped.
func (s *MemStore) DeleteBlob(blob uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.nodes {
		if k.Blob == blob {
			delete(s.nodes, k)
			n++
		}
	}
	return n
}

// nodesEqual is strict content equality (codec round-trip tests).
func nodesEqual(a, b *Node) bool {
	return nodesEquivalent(a, b) && (!a.Leaf || slices.Equal(a.Chunk.Providers, b.Chunk.Providers))
}

// nodesEquivalent reports whether b may be idempotently dropped when a is
// already stored: identical content, except that leaf PROVIDER LISTS may
// differ (replica placement is repair-mutable state, not node identity).
func nodesEquivalent(a, b *Node) bool {
	if a.Key != b.Key || a.Leaf != b.Leaf {
		return false
	}
	if a.Leaf {
		return a.Chunk.Key == b.Chunk.Key && a.Chunk.Length == b.Chunk.Length &&
			a.Chunk.IsZero() == b.Chunk.IsZero()
	}
	return a.LeftVer == b.LeftVer && a.RightVer == b.RightVer
}
