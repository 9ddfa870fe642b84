package meta

import (
	"context"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/durable"
)

// Frozen node-log format: one record of every kind as PersistentStore has
// always journaled it, and the snapshot of the one node they leave. The
// script drives the store's mutators, so the literals pin what it writes;
// replaying them pins what it reads.
var frozenNodeLog = []struct{ kind, hex string }{
	{"put", "0103000000010000000000000002000000000000000300000000000000010000000000000001020000000300000064703103000000647032010000000000000002000000000000000300000000000000001000000100000000000000020000000000000000000000000000000400000000000000000100000000000000ffffffffffffffff090000000000000001000000000000000000000000000000010000000000000001010000000300000064703300000000000000000000000000000000000000000000000007000000"},
	{"delete", "02010000000100000000000000020000000000000000000000000000000400000000000000"},
	{"patch", "04010000000100000000000000020000000000000003000000000000000100000000000000010000000000000002000000000000000300000000000000020000000300000064703203000000647034"},
	{"deleteblob", "030900000000000000"},
}

const frozenNodeSnapshot = "0100000001000000000000000200000000000000030000000000000001000000000000000102000000030000006470320300000064703401000000000000000200000000000000030000000000000000100000"

var (
	frozenLeaf = &Node{
		Key:   NodeKey{Blob: 1, Version: 2, Off: 3, Size: 1},
		Leaf:  true,
		Chunk: ChunkRef{Providers: []string{"dp1", "dp2"}, Key: chunk.Key{Blob: 1, Version: 2, Index: 3}, Length: 4096},
	}
	frozenInner = &Node{Key: NodeKey{Blob: 1, Version: 2, Off: 0, Size: 4}, LeftVer: 1, RightVer: ZeroVersion}
	frozenOther = &Node{Key: NodeKey{Blob: 9, Version: 1, Off: 0, Size: 1}, Leaf: true, Chunk: ChunkRef{Providers: []string{"dp3"}, Length: 7}}
	frozenPatch = ReplicaPatch{Key: frozenLeaf.Key, Chunk: frozenLeaf.Chunk.Key, Providers: []string{"dp2", "dp4"}}
)

func frozenNodeScript(t *testing.T, s *PersistentStore) {
	t.Helper()
	if err := s.PutNodes([]*Node{frozenLeaf, frozenInner, frozenOther}); err != nil {
		t.Fatal(err)
	}
	if n := s.DeleteNodes([]NodeKey{frozenInner.Key}); n != 1 {
		t.Fatalf("deleted %d nodes, want 1", n)
	}
	if n := s.PatchReplicas([]ReplicaPatch{frozenPatch}); n != 1 {
		t.Fatalf("patched %d leaves, want 1", n)
	}
	if n := s.DeleteBlob(frozenOther.Key.Blob); n != 1 {
		t.Fatalf("blob delete dropped %d nodes, want 1", n)
	}
}

// checkFrozenNodeState asserts the store holds exactly the patched leaf.
func checkFrozenNodeState(t *testing.T, s *PersistentStore) {
	t.Helper()
	if s.Len() != 1 {
		t.Fatalf("store holds %d nodes, want 1", s.Len())
	}
	got, err := s.GetNode(context.Background(), frozenLeaf.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Chunk.Providers, frozenPatch.Providers) || got.Chunk.Key != frozenLeaf.Chunk.Key {
		t.Fatalf("leaf = %+v, want the patched frozen leaf", got)
	}
}

// TestNodeLogFormatFrozen: the mutators journal the frozen records, a
// compaction writes the frozen snapshot, and both replay to the same store.
func TestNodeLogFormatFrozen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	frozenNodeScript(t, s)
	s.Close()
	log, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if len(rec.Records) != len(frozenNodeLog) {
		t.Fatalf("journaled %d records, want %d", len(rec.Records), len(frozenNodeLog))
	}
	for i, want := range frozenNodeLog {
		if got := hex.EncodeToString(rec.Records[i]); got != want.hex {
			t.Errorf("record %d (%s)\n got %s\nwant %s", i, want.kind, got, want.hex)
		}
	}

	s, err = NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	checkFrozenNodeState(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	log, rec, err = durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if got := hex.EncodeToString(rec.Snapshot); got != frozenNodeSnapshot {
		t.Errorf("snapshot\n got %s\nwant %s", got, frozenNodeSnapshot)
	}
	s, err = NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkFrozenNodeState(t, s)
}

// TestNodeLogReplayFrozen: a log holding the frozen records replays to
// the store the script left.
func TestNodeLogReplayFrozen(t *testing.T) {
	dir := t.TempDir()
	log, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range frozenNodeLog {
		b, err := hex.DecodeString(r.hex)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkFrozenNodeState(t, s)
}
