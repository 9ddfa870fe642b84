package meta

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/durable"
	"repro/internal/wire"
)

// PersistentStore is a metadata node store that survives restarts: nodes
// live in RAM (they are read-hot and immutable) and every mutation — puts
// AND the garbage collector's deletes — is journaled through a
// durable.Log that is replayed on open. This reproduces §IV-B: "we also
// introduced persistent data and metadata storage while keeping our
// initial RAM-based storage scheme as an underlying caching mechanism".
//
// Logging deletes matters as much as logging puts: without them a
// restarted metadata provider would resurrect every tree node the GC had
// reclaimed, silently re-leaking the space and corrupting the sweeper's
// adjacent-floor-diff invariant (a candidate walk would rediscover nodes
// the version manager believes are gone). Once the delete-heavy log grows
// past compactEvery records, the store snapshots its live node set and
// truncates the log, so disk usage tracks the live tree, not the
// mutation history.
type PersistentStore struct {
	mem *MemStore

	mu           sync.Mutex
	log          *durable.Log
	compactEvery uint64
}

// Journal record types for the node log.
const (
	nodeRecPut        = uint8(1)
	nodeRecDelete     = uint8(2)
	nodeRecDeleteBlob = uint8(3)
	nodeRecPatch      = uint8(4)
)

// persistCompactEvery is the default record count triggering snapshot +
// log compaction.
const persistCompactEvery = 1 << 15

// NewPersistentStore opens (creating if needed) the node log in dir and
// replays it. If syncWrites is true every mutation batch is fsynced.
func NewPersistentStore(dir string, syncWrites bool) (*PersistentStore, error) {
	log, rec, err := durable.Open(dir, durable.Options{Fsync: syncWrites})
	if err != nil {
		return nil, fmt.Errorf("meta: opening node log: %w", err)
	}
	s := &PersistentStore{mem: NewMemStore(), log: log, compactEvery: persistCompactEvery}
	if rec.Snapshot != nil {
		if err := s.loadSnapshot(rec.Snapshot); err != nil {
			log.Close()
			return nil, err
		}
	}
	for i, r := range rec.Records {
		if err := s.applyRecord(r); err != nil {
			log.Close()
			return nil, fmt.Errorf("meta: replaying node log record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	return s, nil
}

func (s *PersistentStore) loadSnapshot(snap []byte) error {
	d := wire.NewDecoder(snap)
	cnt := d.U32()
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		n := &Node{}
		n.Decode(d)
		if d.Err() == nil {
			if err := s.mem.PutNodes([]*Node{n}); err != nil {
				return fmt.Errorf("meta: loading node snapshot: %w", err)
			}
		}
	}
	if d.Err() != nil {
		return fmt.Errorf("meta: corrupt node snapshot: %w", d.Err())
	}
	return nil
}

func (s *PersistentStore) applyRecord(rec []byte) error {
	d := wire.NewDecoder(rec)
	switch kind := d.U8(); kind {
	case nodeRecPut:
		cnt := d.U32()
		for i := uint32(0); i < cnt && d.Err() == nil; i++ {
			n := &Node{}
			n.Decode(d)
			if d.Err() != nil {
				break
			}
			if err := s.mem.PutNodes([]*Node{n}); err != nil {
				return err
			}
		}
	case nodeRecDelete:
		cnt := d.U32()
		keys := make([]NodeKey, 0, cnt)
		for i := uint32(0); i < cnt && d.Err() == nil; i++ {
			keys = append(keys, NodeKey{Blob: d.U64(), Version: d.U64(), Off: d.U64(), Size: d.U64()})
		}
		if d.Err() == nil {
			s.mem.DeleteNodes(keys)
		}
	case nodeRecDeleteBlob:
		if blob := d.U64(); d.Err() == nil {
			s.mem.DeleteBlob(blob)
		}
	case nodeRecPatch:
		cnt := d.U32()
		patches := make([]ReplicaPatch, 0, cnt)
		for i := uint32(0); i < cnt && d.Err() == nil; i++ {
			var p ReplicaPatch
			p.decode(d)
			patches = append(patches, p)
		}
		if d.Err() == nil {
			s.mem.PatchReplicas(patches)
		}
	default:
		return fmt.Errorf("meta: unknown node log record type %d", kind)
	}
	if d.Err() != nil {
		return fmt.Errorf("meta: corrupt node log record: %w", d.Err())
	}
	return nil
}

// PutNodes stores the batch in RAM and appends it to the log as one
// record (one write, one fsync). s.mu spans the RAM apply and the WAL
// order reservation (AppendAsync), so replay order always matches the
// order mutations were applied in RAM — but the fsync itself is paid
// OUTSIDE s.mu, so concurrent writers' puts group-commit instead of
// queueing their fsyncs behind one another.
func (s *PersistentStore) PutNodes(nodes []*Node) error {
	s.mu.Lock()
	if err := s.mem.PutNodes(nodes); err != nil {
		s.mu.Unlock()
		return err
	}
	e := wire.NewEncoder(64 * len(nodes))
	e.PutU8(nodeRecPut)
	e.PutU32(uint32(len(nodes)))
	for _, n := range nodes {
		n.Encode(e)
	}
	wait := s.log.AppendAsync(e.Bytes())
	s.mu.Unlock()
	if err := wait(); err != nil {
		return fmt.Errorf("meta: appending node log: %w", err)
	}
	s.maybeCompact()
	return nil
}

// DeleteNodes removes the given keys, durably: a restart replays the
// delete, so reclaimed tree nodes stay dead. Returns how many nodes were
// actually dropped.
func (s *PersistentStore) DeleteNodes(keys []NodeKey) int {
	s.mu.Lock()
	n := s.mem.DeleteNodes(keys)
	e := wire.NewEncoder(16 + 32*len(keys))
	e.PutU8(nodeRecDelete)
	e.PutU32(uint32(len(keys)))
	for _, k := range keys {
		e.PutU64(k.Blob)
		e.PutU64(k.Version)
		e.PutU64(k.Off)
		e.PutU64(k.Size)
	}
	wait := s.log.AppendAsync(e.Bytes())
	s.mu.Unlock()
	// A failed append leaves the delete volatile; the GC re-issues deletes
	// idempotently on its next sweep, so this is tolerated, not fatal.
	_ = wait()
	s.maybeCompact()
	return n
}

// PatchReplicas rewrites leaf replica lists, durably: the patch is
// journaled so a restarted metadata provider does not resurrect dead
// replica addresses into read paths the repair engine already fixed.
// Replay over a snapshot is idempotent: a patch for an absent or already-
// matching leaf is a no-op (see compactLocked's record-type contract).
func (s *PersistentStore) PatchReplicas(patches []ReplicaPatch) int {
	s.mu.Lock()
	n := s.mem.PatchReplicas(patches)
	if n == 0 {
		// Nothing changed in RAM (stale or duplicate patch): journaling it
		// would only grow the log.
		s.mu.Unlock()
		return 0
	}
	e := wire.NewEncoder(64 * len(patches))
	e.PutU8(nodeRecPatch)
	e.PutU32(uint32(len(patches)))
	for i := range patches {
		patches[i].encode(e)
	}
	wait := s.log.AppendAsync(e.Bytes())
	s.mu.Unlock()
	// A failed append leaves the patch volatile; the repair engine's next
	// pass re-detects the stale placement and re-patches, so this is
	// tolerated, not fatal.
	_ = wait()
	s.maybeCompact()
	return n
}

// DeleteBlob removes every node of one blob, durably.
func (s *PersistentStore) DeleteBlob(blob uint64) int {
	s.mu.Lock()
	n := s.mem.DeleteBlob(blob)
	e := wire.NewEncoder(16)
	e.PutU8(nodeRecDeleteBlob)
	e.PutU64(blob)
	wait := s.log.AppendAsync(e.Bytes())
	s.mu.Unlock()
	_ = wait()
	s.maybeCompact()
	return n
}

// maybeCompact snapshots and truncates once the committed log has grown
// past the threshold. Records enqueued by concurrent mutators but not yet
// committed replay AFTER the snapshot; that re-application is idempotent
// (puts re-store identical immutable nodes, deletes of absent keys are
// no-ops), so the snapshot staying slightly ahead of the WAL is safe.
func (s *PersistentStore) maybeCompact() {
	if s.log.Records() < s.compactEvery {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Records() >= s.compactEvery {
		_ = s.compactLocked() // best effort; the WAL keeps working uncompacted
	}
}

// Compact snapshots the live node set and truncates the log.
func (s *PersistentStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked is Compact with s.mu held. MemStore reads are internally
// locked. Mutators reserve WAL order under s.mu but commit their records
// OUTSIDE it (AppendAsync), so the snapshot may run ahead of the WAL by
// the records still in flight; that is safe only because every record
// type replays idempotently over the snapshot's state (see maybeCompact)
// — keep it that way when adding record types.
func (s *PersistentStore) compactLocked() error {
	nodes := s.mem.Snapshot()
	e := wire.NewEncoder(64 * len(nodes))
	e.PutU32(uint32(len(nodes)))
	for _, n := range nodes {
		n.Encode(e)
	}
	if err := s.log.Compact(e.Bytes()); err != nil {
		return fmt.Errorf("meta: compacting node log: %w", err)
	}
	return nil
}

// GetNode serves from RAM.
func (s *PersistentStore) GetNode(ctx context.Context, key NodeKey) (*Node, error) {
	return s.mem.GetNode(ctx, key)
}

// GetNodes serves the batch from RAM (nil entries for absent keys).
func (s *PersistentStore) GetNodes(ctx context.Context, keys []NodeKey) ([]*Node, error) {
	return s.mem.GetNodes(ctx, keys)
}

// PeekNodes implements Peeker: nodes live in RAM, so peeking is free.
func (s *PersistentStore) PeekNodes(keys []NodeKey) []*Node { return s.mem.PeekNodes(keys) }

// Len reports the number of nodes.
func (s *PersistentStore) Len() int { return s.mem.Len() }

// LogStats reports the node log's cumulative append/write/fsync counts
// (observability: the /metrics registry scrapes this).
func (s *PersistentStore) LogStats() durable.LogStats { return s.log.Stats() }

// Close flushes and closes the log.
func (s *PersistentStore) Close() error {
	return s.log.Close()
}
