package provider

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/durable"
	"repro/internal/wire"
)

// sidecar is the data provider's durable companion state: a WAL (plus
// snapshot) journaling the pieces of provider state the chunk store
// itself does not persist — per-chunk put times, deleted-blob
// tombstones, and chunk integrity manifests (content digest + exact
// length). With the sidecar, a restarted provider:
//
//   - keeps rejecting late phase-1 puts for blobs deleted before the crash
//     (without it, the tombstone set refilled only on the blob's next
//     delete sweep, a bounded but real acceptance window), and
//   - reports true chunk ages to the GC orphan sweep, so settled chunks
//     are reclaimable immediately instead of re-aging through a full
//     conservative grace period from the restart.
//
// Appends ride durable.Log's group commit: the order slot is reserved
// under the caller's lock via AppendAsync and the write+fsync is paid
// outside it, so concurrent puts coalesce their journal I/O exactly as
// the metadata node log does. A put batch (one putchunks) journals every
// chunk that landed as ONE record — a put-age section then a digest
// section — and pays ONE group-commit wait before its ack, not two per
// chunk. The record is one CRC'd frame, so a batch's
// ages and digests replay together or not at all.
//
// Put-age and digest records are advisory — a lost append merely
// re-graces its chunks after a restart and leaves their digests to be
// backfilled on the next clean read — so put paths tolerate append
// errors. Tombstone records are not: the GC delete sweep counts a
// provider as visited once the tombstone RPC acks, so the ack must imply
// the tombstone survives a restart; append failures there propagate to
// the sweep, which retries.
type sidecar struct {
	mu           sync.Mutex
	log          *durable.Log
	compactEvery uint64
}

// Sidecar section kinds.
const (
	sideRecPutAge = uint8(1)
	sideRecTomb   = uint8(2)
	sideRecDelete = uint8(3)
	sideRecDigest = uint8(4)
)

// digestRec is a chunk's persisted integrity manifest: the content digest
// plus the exact payload length. The length is what lets a disk-backed
// provider detect torn files on boot (file size vs. manifest) without
// reading every chunk.
type digestRec struct {
	Digest chunk.Digest
	Length uint32
}

// sidecarCompactEvery is the record count that triggers snapshot + log
// truncation, keeping disk usage proportional to live state.
const sidecarCompactEvery = 1 << 15

// openSidecar opens (creating if needed) the sidecar log in dir and
// replays it into fresh put-time, tombstone, and chunk-digest maps.
func openSidecar(dir string, fsync bool) (*sidecar, map[chunk.Key]time.Time, map[uint64]struct{}, map[chunk.Key]digestRec, error) {
	log, rec, err := durable.Open(dir, durable.Options{Fsync: fsync})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("provider: opening sidecar log: %w", err)
	}
	putTimes := make(map[chunk.Key]time.Time)
	tombstones := make(map[uint64]struct{})
	digests := make(map[chunk.Key]digestRec)
	if rec.Snapshot != nil {
		if err := replaySidecarRecord(rec.Snapshot, putTimes, tombstones, digests); err != nil {
			log.Close()
			return nil, nil, nil, nil, fmt.Errorf("provider: sidecar snapshot: %w", err)
		}
	}
	for i, r := range rec.Records {
		if err := replaySidecarRecord(r, putTimes, tombstones, digests); err != nil {
			log.Close()
			return nil, nil, nil, nil, fmt.Errorf("provider: sidecar record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	return &sidecar{log: log, compactEvery: sidecarCompactEvery}, putTimes, tombstones, digests, nil
}

// replaySidecarRecord applies one journal record: a run of sections. A
// put batch's record is a put-age section then a digest section; the
// compaction snapshot is a put-age, a tombstone and a digest section — all
// replay through section.apply.
func replaySidecarRecord(rec []byte, putTimes map[chunk.Key]time.Time, tombstones map[uint64]struct{}, digests map[chunk.Key]digestRec) error {
	d := wire.NewDecoder(rec)
	c := d.Codec()
	for d.Remaining() > 0 {
		var sec section
		sec.wire(c)
		if d.Err() != nil {
			return fmt.Errorf("corrupt sidecar record: %w", d.Err())
		}
		if err := sec.apply(putTimes, tombstones, digests); err != nil {
			return err
		}
	}
	return nil
}

// section is one run of a sidecar record: a kind byte, then a counted list
// of the entries that kind carries.
type section struct {
	kind  uint8
	ages  []ageEntry    // sideRecPutAge
	tombs []uint64      // sideRecTomb: blob IDs
	keys  []chunk.Key   // sideRecDelete
	digs  []digestEntry // sideRecDigest
}

// wire is the section's one field list. An unknown kind codes no list, and
// apply rejects it.
func (sec *section) wire(c *wire.Codec) {
	c.U8(&sec.kind)
	switch sec.kind {
	case sideRecPutAge:
		wire.Slice(c, &sec.ages, wire.MaxCount, (*ageEntry).wire)
	case sideRecTomb:
		c.U64s(&sec.tombs, wire.MaxCount)
	case sideRecDelete:
		wire.Slice(c, &sec.keys, wire.MaxCount, (*chunk.Key).Wire)
	case sideRecDigest:
		wire.Slice(c, &sec.digs, wire.MaxCount, (*digestEntry).wire)
	}
}

// size is the section's encoded length: the kind byte and count, then
// each entry (only the list its kind carries is non-empty).
func (sec *section) size() int {
	return 5 + 32*len(sec.ages) + 8*len(sec.tombs) + 24*len(sec.keys) + 33*len(sec.digs)
}

// apply replays the section into the provider's maps.
func (sec *section) apply(putTimes map[chunk.Key]time.Time, tombstones map[uint64]struct{}, digests map[chunk.Key]digestRec) error {
	switch sec.kind {
	case sideRecPutAge:
		for _, a := range sec.ages {
			putTimes[a.Key] = time.UnixMilli(int64(a.AtMs))
		}
	case sideRecTomb:
		for _, b := range sec.tombs {
			tombstones[b] = struct{}{}
		}
	case sideRecDelete:
		for _, k := range sec.keys {
			delete(putTimes, k)
			delete(digests, k)
		}
	case sideRecDigest:
		for _, d := range sec.digs {
			digests[d.Key] = d.Rec
		}
	default:
		return fmt.Errorf("unknown sidecar record type %d", sec.kind)
	}
	return nil
}

// encodeRecord codes sections, in order, as one journal record.
func encodeRecord(secs ...section) []byte {
	n := 0
	for i := range secs {
		n += secs[i].size()
	}
	e := wire.NewEncoder(n)
	c := e.Codec()
	for i := range secs {
		secs[i].wire(c)
	}
	return e.Bytes()
}

// ageEntry is one chunk's put time in a put-age section.
type ageEntry struct {
	Key  chunk.Key
	AtMs uint64 // unix milliseconds
}

func (a *ageEntry) wire(c *wire.Codec) {
	a.Key.Wire(c)
	c.U64(&a.AtMs)
}

// digestEntry is one chunk's integrity manifest in a digest section.
type digestEntry struct {
	Key chunk.Key
	Rec digestRec
}

func (d *digestEntry) wire(c *wire.Codec) {
	d.Key.Wire(c)
	d.Rec.Digest.Wire(c)
	c.U32(&d.Rec.Length)
}

// appendTombstones journals deleted-blob tombstones (synchronous: the
// caller's ack must imply restart survival). It holds s.mu across the
// append so the record cannot land in a WAL generation a concurrent
// compaction is about to truncate: the caller inserts into the tombstone
// map BEFORE calling here, and maybeCompact snapshots that map while
// holding the same mutex — so a tombstone is either in the compaction
// snapshot (inserted before the capture) or appended to the surviving
// generation (this call serialized after the switch), never dropped.
// Put-age and delete records don't take the gate: losing one merely
// re-graces a chunk or leaks an age entry until the next compaction,
// which is the documented advisory contract.
func (s *sidecar) appendTombstones(blobs []uint64) error {
	rec := encodeRecord(section{kind: sideRecTomb, tombs: blobs})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Append(rec)
}

// appendChunkState journals put ages and digests as ONE record: a put-age
// section then a digest section, an empty one left out. Called with the
// lock whose RAM updates it journals held, so WAL order is RAM-apply
// order; the returned wait commits outside it.
func (s *sidecar) appendChunkState(ages []ageEntry, digs []digestEntry) func() error {
	secs := make([]section, 0, 2)
	if len(ages) > 0 {
		secs = append(secs, section{kind: sideRecPutAge, ages: ages})
	}
	if len(digs) > 0 {
		secs = append(secs, section{kind: sideRecDigest, digs: digs})
	}
	return s.log.AppendAsync(encodeRecord(secs...))
}

// appendDeletes journals put-age removals for deleted chunks so a replay
// does not resurrect (and leak) their entries.
func (s *sidecar) appendDeletes(keys []chunk.Key) func() error {
	return s.log.AppendAsync(encodeRecord(section{kind: sideRecDelete, keys: keys}))
}

// maybeCompact snapshots live state and truncates the log once it has
// grown past the threshold. snapshot must capture the server's current
// put-time and tombstone maps; records committed by concurrent mutators
// after the capture replay idempotently over it (put-age and tombstone
// re-application overwrite with identical values, deletes of absent keys
// are no-ops).
func (s *sidecar) maybeCompact(snapshot func() ([]byte, bool)) {
	if s.log.Records() < s.compactEvery {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Records() < s.compactEvery {
		return
	}
	snap, ok := snapshot()
	if !ok {
		return
	}
	_ = s.log.Compact(snap) // best effort; the WAL keeps working uncompacted
}

// Close flushes and closes the log.
func (s *sidecar) Close() error { return s.log.Close() }
