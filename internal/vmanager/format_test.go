package vmanager

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/durable"
)

// Frozen formats. The hex literals below are the journal records and the
// snapshot this package has always written; a journal or snapshot on disk,
// or a record in flight to a standby, must keep decoding to the same state
// across releases. The script drives the live mutators (nothing here names
// an encoder), so the literals pin what the code writes, and replaying them
// pins what it reads.

// frozenRecords is one record of every kind, in the order frozenScript
// journals them.
var frozenRecords = []struct{ kind, hex string }{
	{"create", "010100000000000000000400000000000002000000"},
	{"assign", "020100000000000000010000000000000000000000000000000300000000000000b80b00000000000003000000000000000000000000000000b80b000000000000104a0f0000000000d007000000000000"},
	{"lease", "0901000000000000000100000000000000044c0f0000000000"},
	{"commit", "0301000000000000000100000000000000"},
	{"assign", "020100000000000000020000000000000001000000000000000200000000000000b80b00000000000003000000000000000100000000000000b80b000000000000bc570f00000000008813000000000000"},
	{"abort", "040100000000000000020000000000000000"},
	{"woven", "0a01000000000000000200000000000000"},
	{"assign", "020100000000000000030000000000000002000000000000000400000000000000ac0d00000000000004000000000000000100000000000000ac0d000000000000044c0f0000000000d007000000000000"},
	{"commit", "0301000000000000000300000000000000"},
	{"retention", "0501000000000000000200000000000000"},
	{"prune", "0601000000000000000200000000000000"},
	{"gcreport", "08010000000000000002000000000000000001000000000000000300000000000000040000000000000005000000000000000600000000000000"},
	{"create", "010200000000000000000200000000000001000000"},
	{"delete", "070200000000000000"},
	{"epoch", "0b070000000000000009000000766d2d613a34343030"},
}

// frozenSnapshot is the snapshot of the manager frozenScript leaves.
const frozenSnapshot = "03030000000000000003000000000000000400000000000000050000000000000006000000000000000100000000000000070000000000000009000000766d2d613a3434303002000000010000000000000000040000000000000200000000000000000000000300000000000000ac0d0000000000000200000000000000020000000000000002000000000000000200000000000000030000000000000000000300000000000000000000000300000000000000b80b000000000000030000000000000000000000000000000100044c0f000000000000d00700000000000001000000000000000200000000000000b80b000000000000030000000000000001000000000000000101bc570f000000000001881300000000000002000000000000000400000000000000ac0d000000000000040000000000000001000000000000000100044c0f000000000000d007000000000000020000000000000000020000000000000100000000000000000000000000000000000000000000000000000000000000000000000100000000000000000000000000000001000000000000000000000000000000010000000000"

// frozenPreHAAssign is an assign record as journals written before
// per-version lease TTLs hold it: no trailing TTL field. Blob 1, version 1,
// chunks [0, 1), 100 bytes, lease deadline 1000500 ms.
const frozenPreHAAssign = "020100000000000000010000000000000000000000000000000100000000000000640000000000000001000000000000000000000000000000640000000000000034440f0000000000"

// frozenScript performs one transition of every journaled kind on m under
// a fixed clock.
func frozenScript(t *testing.T, m *Manager) {
	t.Helper()
	clock := time.UnixMilli(1_000_000)
	m.now = func() time.Time { return clock }
	m.SetLeaseTTL(2 * time.Second)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	blob, err := m.Create(1024, 2)
	must(err)
	_, err = m.Assign(&AssignReq{BlobID: blob, Size: 3000, Append: true})
	must(err)
	clock = clock.Add(500 * time.Millisecond)
	must(m.RenewLease(blob, 1))
	must(m.Commit(blob, 1))
	_, err = m.Assign(&AssignReq{BlobID: blob, Offset: 1024, Size: 100, WantLeaseTTLMs: 5000})
	must(err)
	must(m.AbortWoven(blob, 2, false))
	must(m.MarkWoven(blob, 2))
	_, err = m.Assign(&AssignReq{BlobID: blob, Size: 500, Append: true})
	must(err)
	must(m.Commit(blob, 3))
	must(m.SetRetention(blob, 2))
	_, err = m.Prune(blob, 1)
	must(err)
	must(m.GCReport(&GCReportReq{BlobID: blob, ReclaimedTo: 2, Chunks: 3, Bytes: 4, Nodes: 5, Orphans: 6}))
	gone, err := m.Create(512, 1)
	must(err)
	must(m.Delete(gone))
	must(m.journalEpoch(7, "vm-a:4400"))
}

func snapshotHex(m *Manager) string {
	snap, _ := m.encodeSnapshotOpt(false)
	return hex.EncodeToString(snap)
}

func journalRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	log, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	return rec.Records
}

func writeJournal(t *testing.T, dir string, hexRecs ...string) {
	t.Helper()
	log, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, h := range hexRecs {
		rec, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalFormatFrozen: the live mutators journal exactly the frozen
// records, and the manager they leave snapshots to the frozen bytes.
func TestJournalFormatFrozen(t *testing.T) {
	dir := t.TempDir()
	m := openM(t, dir)
	frozenScript(t, m)
	if got := snapshotHex(m); got != frozenSnapshot {
		t.Errorf("snapshot\n got %s\nwant %s", got, frozenSnapshot)
	}
	m.Close()
	recs := journalRecords(t, dir)
	if len(recs) != len(frozenRecords) {
		t.Fatalf("journaled %d records, want %d", len(recs), len(frozenRecords))
	}
	for i, want := range frozenRecords {
		if got := hex.EncodeToString(recs[i]); got != want.hex {
			t.Errorf("record %d (%s)\n got %s\nwant %s", i, want.kind, got, want.hex)
		}
	}
}

// TestJournalReplayFrozen: the frozen records replay to the frozen
// snapshot, the frozen snapshot decodes and re-encodes byte for byte, and
// a pre-HA assign record still replays (with no negotiated TTL).
func TestJournalReplayFrozen(t *testing.T) {
	dir := t.TempDir()
	var hexRecs []string
	for _, r := range frozenRecords {
		hexRecs = append(hexRecs, r.hex)
	}
	writeJournal(t, dir, hexRecs...)
	m := openM(t, dir)
	if got := snapshotHex(m); got != frozenSnapshot {
		t.Errorf("replayed snapshot\n got %s\nwant %s", got, frozenSnapshot)
	}
	m.Close()

	snap, err := hex.DecodeString(frozenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewManager()
	if err := fresh.decodeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := fresh.encodeSnapshotOpt(false); !bytes.Equal(got, snap) {
		t.Errorf("snapshot round trip\n got %x\nwant %s", got, frozenSnapshot)
	}

	dir = t.TempDir()
	writeJournal(t, dir, frozenRecords[0].hex, frozenPreHAAssign)
	m = openM(t, dir)
	defer m.Close()
	b, err := m.blob(1)
	if err != nil {
		t.Fatal(err)
	}
	vi := b.vi(1)
	if vi.leaseUntil != 1_000_500 || vi.leaseTTLMs != 0 || vi.sizeBytes != 100 || !vi.committed || !vi.failed {
		t.Fatalf("pre-HA assign replayed to %+v, want a lapsed 100-byte lease aborted on open", *vi)
	}
}
