package meta

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chunk"
)

func persistNodes(n int) []*Node {
	out := make([]*Node, n)
	for i := range out {
		out[i] = &Node{
			Key:  NodeKey{Blob: 1, Version: uint64(i/4 + 1), Off: uint64(i % 4), Size: 1},
			Leaf: true,
			Chunk: ChunkRef{
				Providers: []string{"dp1", "dp2"},
				Key:       chunk.Key{Blob: 1, Version: uint64(i), Index: uint64(i)},
				Length:    uint32(100 + i),
			},
		}
	}
	return out
}

func TestPersistentStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes := persistNodes(20)
	if err := s.PutNodes(nodes[:12]); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNodes(nodes[12:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 20 {
		t.Fatalf("recovered %d nodes, want 20", re.Len())
	}
	for _, n := range nodes {
		got, err := re.GetNode(context.Background(), n.Key)
		if err != nil {
			t.Fatalf("get %s: %v", n.Key, err)
		}
		if !nodesEqual(got, n) {
			t.Errorf("node %s corrupted across restart", n.Key)
		}
	}
	// The store keeps accepting writes after recovery.
	extra := &Node{Key: NodeKey{Blob: 2, Version: 1, Off: 0, Size: 2}, LeftVer: 1, RightVer: ZeroVersion}
	if err := re.PutNodes([]*Node{extra}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutNodes(persistNodes(8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header claiming more bytes
	// than exist, followed by garbage.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files = %v (%v)", wals, err)
	}
	f, err := os.OpenFile(wals[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], 5000)
	binary.LittleEndian.PutUint32(hdr[4:], 0xdeadbeef)
	f.Write(hdr[:])
	f.Write([]byte("torn"))
	f.Close()

	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer re.Close()
	if re.Len() != 8 {
		t.Fatalf("recovered %d nodes, want 8", re.Len())
	}
}

func TestPersistentStoreDeletesAreDurable(t *testing.T) {
	// GC deletes must survive restarts: a restarted metadata provider that
	// resurrected reclaimed nodes would re-leak everything the sweeper
	// freed.
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes := persistNodes(20) // versions 1..5, four nodes each, on blob 1
	if err := s.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	blob2 := &Node{Key: NodeKey{Blob: 2, Version: 1, Off: 0, Size: 1}, Leaf: true,
		Chunk: ChunkRef{Providers: []string{"dp1"}, Length: 7}}
	if err := s.PutNodes([]*Node{blob2}); err != nil {
		t.Fatal(err)
	}
	if got := s.DeleteNodes([]NodeKey{nodes[0].Key, nodes[1].Key}); got != 2 {
		t.Fatalf("deleted %d, want 2", got)
	}
	if got := s.DeleteBlob(2); got != 1 {
		t.Fatalf("blob delete dropped %d, want 1", got)
	}
	// Kill -9: no Close.

	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 18 {
		t.Fatalf("recovered %d nodes, want 18 (deletes replayed)", re.Len())
	}
	for _, k := range []NodeKey{nodes[0].Key, nodes[1].Key, blob2.Key} {
		if _, err := re.GetNode(context.Background(), k); err == nil {
			t.Errorf("deleted node %s resurrected across restart", k)
		}
	}
}

func TestPersistentStoreCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes := persistNodes(12)
	if err := s.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	s.DeleteNodes([]NodeKey{nodes[11].Key})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction mutations land in the fresh log generation.
	s.DeleteNodes([]NodeKey{nodes[10].Key})
	s.Close()

	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 10 {
		t.Fatalf("recovered %d nodes, want 10", re.Len())
	}
	if _, err := re.GetNode(context.Background(), nodes[0].Key); err != nil {
		t.Errorf("kept node lost across compaction: %v", err)
	}
}

func TestPersistentStoreAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.compactEvery = 8
	nodes := persistNodes(40)
	for _, n := range nodes {
		if err := s.PutNodes([]*Node{n}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.log.Records(); got >= 8 {
		t.Errorf("log holds %d records despite compactEvery=8", got)
	}
	s.Close()
	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 40 {
		t.Fatalf("recovered %d nodes, want 40", re.Len())
	}
}

func TestPersistentStoreIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes := persistNodes(4)
	if err := s.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put of identical nodes is legal and re-logged; replay
	// must tolerate duplicates.
	if err := s.PutNodes(nodes); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := NewPersistentStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 4 {
		t.Fatalf("recovered %d nodes, want 4", re.Len())
	}
}
