package meta

import (
	"context"
	"errors"
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
// A journal record is the metadata request that made the mutation (its
// kind byte, then the request's wire body), and replay hands the decoded
// request to the same MemStore call the live mutation made — the log
// shares the RPC codecs and has none of its own.
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

// Node log record kinds: the byte before the request body. (The snapshot
// is a bare PutNodesReq body.)
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
	var req PutNodesReq
	if err := wire.Unmarshal(snap, &req); err != nil {
		return fmt.Errorf("meta: corrupt node snapshot: %w", err)
	}
	if err := s.mem.PutNodes(req.Nodes); err != nil {
		return fmt.Errorf("meta: loading node snapshot: %w", err)
	}
	return nil
}

// applyRecord replays one node log record into the same MemStore call
// the live mutation made.
func (s *PersistentStore) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("meta: empty node log record")
	}
	var err error
	switch body := rec[1:]; rec[0] {
	case nodeRecPut:
		var req PutNodesReq
		if err = wire.Unmarshal(body, &req); err == nil {
			err = s.mem.PutNodes(req.Nodes)
		}
	case nodeRecDelete:
		var req DeleteNodesReq
		if err = wire.Unmarshal(body, &req); err == nil {
			s.mem.DeleteNodes(req.Keys)
		}
	case nodeRecDeleteBlob:
		var req DeleteBlobReq
		if err = wire.Unmarshal(body, &req); err == nil {
			s.mem.DeleteBlob(req.Blob)
		}
	case nodeRecPatch:
		var req PatchReplicasReq
		if err = wire.Unmarshal(body, &req); err == nil {
			s.mem.PatchReplicas(req.Patches)
		}
	default:
		return fmt.Errorf("meta: unknown node log record type %d", rec[0])
	}
	return err
}

// appendLocked reserves the record (kind byte, then the request body) in
// WAL order and returns its commit wait. Caller holds s.mu. size presizes
// the encoder, so a large put is encoded without regrowing its buffer.
func (s *PersistentStore) appendLocked(kind uint8, body wire.Message, size int) func() error {
	e := wire.NewEncoder(size)
	e.PutU8(kind)
	body.Encode(e)
	return s.log.AppendAsync(e.Bytes())
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
	wait := s.appendLocked(nodeRecPut, &PutNodesReq{Nodes: nodes}, 64*len(nodes))
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
	wait := s.appendLocked(nodeRecDelete, &DeleteNodesReq{Keys: keys}, 16+32*len(keys))
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
	wait := s.appendLocked(nodeRecPatch, &PatchReplicasReq{Patches: patches}, 64*len(patches))
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
	wait := s.appendLocked(nodeRecDeleteBlob, &DeleteBlobReq{Blob: blob}, 16)
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
	(&PutNodesReq{Nodes: nodes}).Encode(e)
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
