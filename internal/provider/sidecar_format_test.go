package provider

import (
	"context"
	"encoding/hex"
	"maps"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/durable"
)

// Frozen sidecar format. The hex literals below are the records and the
// compaction snapshot the sidecar has always written; a restarted provider
// must keep replaying them to the same put ages, tombstones and digests.
// The live journaling paths produce them from fixed keys, digests and put
// times, so the literals pin what the code writes, and replaying them pins
// what it reads.

var (
	frozenKeyA = chunk.Key{Blob: 3, Version: 2, Index: 0}
	frozenKeyB = chunk.Key{Blob: 3, Version: 2, Index: 1}
	frozenKeyC = chunk.Key{Blob: 3, Version: 1, Index: 5}
	frozenAtA  = time.UnixMilli(1_700_000_000_000)
	frozenAtB  = time.UnixMilli(1_700_000_000_250)
	frozenDigA = digestRec{Digest: chunk.Digest{Algo: chunk.DigestCRC32C, Sum: 0xdeadbeef}, Length: 1000}
	frozenDigB = digestRec{Digest: chunk.Digest{Algo: chunk.DigestCRC32C, Sum: 0x01020304}, Length: 77}
	frozenDigC = digestRec{Digest: chunk.Digest{Algo: chunk.DigestCRC32C, Sum: 0xcafef00d}, Length: 500}
)

// frozenSidecarRecords is one record of every kind, in the order
// TestSidecarFormatFrozen journals them.
var frozenSidecarRecords = []struct{ kind, hex string }{
	{"put batch", "01020000000300000000000000020000000000000000000000000000000068e5cf8b010000030000000000000002000000000000000100000000000000fa68e5cf8b010000040200000003000000000000000200000000000000000000000000000001efbeaddee803000003000000000000000200000000000000010000000000000001040302014d000000"},
	{"backfill digest", "0401000000030000000000000001000000000000000500000000000000010df0fecaf4010000"},
	{"tombstone", "020200000007000000000000000900000000000000"},
	{"delete", "0301000000030000000000000002000000000000000000000000000000"},
}

// frozenSidecarSnapshot is the compaction snapshot of one put age, one
// tombstone and one digest.
const frozenSidecarSnapshot = "0101000000030000000000000002000000000000000100000000000000fa68e5cf8b01000002010000000900000000000000040100000003000000000000000200000000000000010000000000000001040302014d000000"

// frozenSidecarSnapshotTwo is the compaction snapshot of two entries per
// section, in key order.
const frozenSidecarSnapshotTwo = "01020000000300000000000000010000000000000005000000000000000068e5cf8b010000030000000000000002000000000000000100000000000000fa68e5cf8b0100000202000000070000000000000009000000000000000402000000030000000000000001000000000000000500000000000000010df0fecaf401000003000000000000000200000000000000010000000000000001040302014d000000"

func TestSidecarFormatFrozen(t *testing.T) {
	ctx := context.Background()
	r := newSidecarRig(t)
	if err := r.srv.side.appendChunkState(
		[]ageEntry{{Key: frozenKeyA, AtMs: uint64(frozenAtA.UnixMilli())}, {Key: frozenKeyB, AtMs: uint64(frozenAtB.UnixMilli())}},
		[]digestEntry{{Key: frozenKeyA, Rec: frozenDigA}, {Key: frozenKeyB, Rec: frozenDigB}},
	)(); err != nil {
		t.Fatal(err)
	}
	r.srv.recordDigest(frozenKeyC, frozenDigC)
	if err := Tombstone(ctx, r.cli, "dp", []uint64{7, 9}); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Store().Put(frozenKeyA, fill(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := DeleteChunks(ctx, r.cli, "dp", []chunk.Key{frozenKeyA}); err != nil {
		t.Fatal(err)
	}
	r.srv.Close()

	recs, snap := sidecarContents(t, r.sideDir)
	if snap != nil || len(recs) != len(frozenSidecarRecords) {
		t.Fatalf("sidecar holds snapshot %v and %d records, want %d records", snap != nil, len(recs), len(frozenSidecarRecords))
	}
	for i, want := range frozenSidecarRecords {
		if got := hex.EncodeToString(recs[i]); got != want.hex {
			t.Errorf("record %d (%s)\n got %s\nwant %s", i, want.kind, got, want.hex)
		}
	}

	putTimes := make(map[chunk.Key]time.Time)
	tombs := make(map[uint64]struct{})
	digests := make(map[chunk.Key]digestRec)
	for _, want := range frozenSidecarRecords {
		if err := replaySidecarRecord(mustHex(t, want.hex), putTimes, tombs, digests); err != nil {
			t.Fatalf("replaying %s: %v", want.kind, err)
		}
	}
	checkSidecarMaps(t, putTimes, tombs, digests,
		map[chunk.Key]time.Time{frozenKeyB: frozenAtB},
		map[uint64]struct{}{7: {}, 9: {}},
		map[chunk.Key]digestRec{frozenKeyB: frozenDigB, frozenKeyC: frozenDigC})

	// Compaction keeps entries for chunks the store holds (B, then B and C),
	// each section in key order and tombstones ascending, so a state with
	// two entries per section compacts to the same bytes on every run.
	for _, tc := range []struct {
		name    string
		hold    chunk.Key
		times   map[chunk.Key]time.Time
		tombs   map[uint64]struct{}
		digests map[chunk.Key]digestRec
		hex     string
	}{
		{"one entry per section", frozenKeyB,
			map[chunk.Key]time.Time{frozenKeyB: frozenAtB},
			map[uint64]struct{}{9: {}},
			map[chunk.Key]digestRec{frozenKeyB: frozenDigB},
			frozenSidecarSnapshot},
		{"two entries per section", frozenKeyC,
			map[chunk.Key]time.Time{frozenKeyB: frozenAtB, frozenKeyC: frozenAtA},
			map[uint64]struct{}{9: {}, 7: {}},
			map[chunk.Key]digestRec{frozenKeyB: frozenDigB, frozenKeyC: frozenDigC},
			frozenSidecarSnapshotTwo},
	} {
		r.open()
		if err := r.srv.Store().Put(tc.hold, fill(2, int(tc.digests[tc.hold].Length))); err != nil {
			t.Fatal(err)
		}
		r.srv.putTimes = maps.Clone(tc.times)
		r.srv.tombstones = maps.Clone(tc.tombs)
		r.srv.digests = maps.Clone(tc.digests)
		r.srv.side.compactEvery = 0 // compact whatever the log holds
		r.srv.maybeCompactSidecar()
		r.srv.Close()
		recs, snap = sidecarContents(t, r.sideDir)
		if len(recs) != 0 {
			t.Fatalf("%s: sidecar holds %d records after compaction, want 0", tc.name, len(recs))
		}
		if got := hex.EncodeToString(snap); got != tc.hex {
			t.Errorf("%s: compaction snapshot\n got %s\nwant %s", tc.name, got, tc.hex)
		}
		putTimes = make(map[chunk.Key]time.Time)
		tombs = make(map[uint64]struct{})
		digests = make(map[chunk.Key]digestRec)
		if err := replaySidecarRecord(mustHex(t, tc.hex), putTimes, tombs, digests); err != nil {
			t.Fatalf("%s: replaying the snapshot: %v", tc.name, err)
		}
		checkSidecarMaps(t, putTimes, tombs, digests, tc.times, tc.tombs, tc.digests)
	}
}

func sidecarContents(t *testing.T, dir string) ([][]byte, []byte) {
	t.Helper()
	log, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	return rec.Records, rec.Snapshot
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkSidecarMaps(t *testing.T, putTimes map[chunk.Key]time.Time, tombs map[uint64]struct{}, digests map[chunk.Key]digestRec,
	wantTimes map[chunk.Key]time.Time, wantTombs map[uint64]struct{}, wantDigests map[chunk.Key]digestRec) {
	t.Helper()
	if !maps.EqualFunc(putTimes, wantTimes, time.Time.Equal) {
		t.Errorf("replayed put times %v, want %v", putTimes, wantTimes)
	}
	if !maps.Equal(tombs, wantTombs) {
		t.Errorf("replayed tombstones %v, want %v", tombs, wantTombs)
	}
	if !maps.Equal(digests, wantDigests) {
		t.Errorf("replayed digests %v, want %v", digests, wantDigests)
	}
}
