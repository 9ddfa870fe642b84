// Package durable implements the append-only record log underpinning
// BlobSeer's crash recovery: a write-ahead log (WAL) with CRC-framed
// records, an fsync policy, and snapshot-based log compaction. The version
// manager journals every state transition through it and the metadata
// providers persist their node stores with it, which is what turns a
// restart from total state loss into a replay (§IV-B: "we also introduced
// persistent data and metadata storage while keeping our initial RAM-based
// storage scheme as an underlying caching mechanism").
//
// # On-disk layout
//
// A log lives in one directory and consists of at most one snapshot file
// and one WAL file per generation:
//
//	snap-<gen>.bin   one CRC-framed record: the state snapshot
//	wal-<gen>.log    CRC-framed records appended since that snapshot
//
// Compaction writes snap-<gen+1> (tmp file, fsync, atomic rename), starts
// an empty wal-<gen+1>, and deletes the older generation. Open picks the
// newest generation with a valid snapshot (or the newest bare WAL when no
// snapshot exists yet), so a crash at any point during compaction leaves
// either the old or the new generation fully intact.
//
// # Record framing and torn tails
//
// Every record is framed as [u32 length][u32 CRC-32C of payload][payload].
// A crash mid-append leaves a torn tail: a partial header, a partial
// payload, or a payload that fails its CRC. Replay stops at the first
// invalid frame and Open physically truncates the file there, so recovery
// always yields an exact prefix of the records that were appended and new
// appends continue from a clean boundary. Mid-file corruption (a flipped
// bit) is indistinguishable from a torn tail and is handled the same way:
// everything before the damage survives, nothing after it is trusted.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// frameHeaderSize is the per-record overhead: u32 length + u32 CRC.
const frameHeaderSize = 8

// MaxRecord bounds a single record so a corrupt length prefix can never
// make replay allocate unbounded memory. 64 MiB comfortably fits the
// largest metadata node batch or version-manager snapshot.
const MaxRecord = 64 << 20

// castagnoli is the CRC-32C table (the polynomial used by storage systems
// for its hardware support and better error detection than IEEE).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("durable: log closed")

// ErrRecordTooLarge is returned when appending a record above MaxRecord.
var ErrRecordTooLarge = errors.New("durable: record exceeds MaxRecord")

// Options tune a log's durability/throughput trade-off.
type Options struct {
	// Fsync forces an fsync after every append (and batch). Without it,
	// appends reach the OS page cache immediately (surviving process
	// crashes) but can be lost to a whole-machine crash. Snapshots are
	// always fsynced regardless.
	Fsync bool
}

// Recovery is what Open found on disk: the newest valid snapshot (nil if
// none was ever taken) and every complete WAL record appended after it, in
// order.
type Recovery struct {
	Snapshot []byte
	Records  [][]byte
}

// Log is an open write-ahead log. Append and Compact are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // current wal-<gen>.log
	gen     uint64
	records uint64 // appended to the current generation since open/compact
	closed  bool

	// Group-commit state (Fsync mode only): concurrent appenders fold
	// their framed records into cur; one of them (the leader) writes and
	// fsyncs the whole batch while the next batch accumulates. The batch
	// window is bounded by the in-flight fsync — no timer ever delays an
	// append.
	gmu        sync.Mutex
	gcond      *sync.Cond
	cur        *commitBatch
	committing bool
	// mirror, when set, streams every committed batch to a replica (see
	// Mirror). Guarded by mmu; invoked while the batch's commit slot is
	// still held, so mirror calls are serialized in WAL order.
	mmu    sync.Mutex
	mirror Mirror
	// syncHook, when set (tests only), runs on the leader immediately
	// before each WAL fsync — a barrier that holds one commit in flight
	// while the test stacks up the next batch.
	syncHook func()

	// Cumulative durability-cost counters (see LogStats). The fsync
	// amortization of group commit is a performance claim; these are what
	// tests and benchmarks assert it on.
	statAppends atomic.Uint64 // records acknowledged
	statWrites  atomic.Uint64 // file write calls (one per coalesced batch)
	statSyncs   atomic.Uint64 // WAL fsyncs (snapshot fsyncs not included)
}

// commitBatch is one group-commit unit: the coalesced frames of every
// append that joined it, committed by a single write+fsync.
type commitBatch struct {
	buf  []byte
	n    uint64   // records in buf
	recs [][]byte // unframed records, kept only while a mirror is attached
	done bool
	err  error
}

// Mirror receives every record batch committed to the log, in exact WAL
// order, called synchronously on the commit path: a batch's appenders are
// not released until the mirror returns, so a replicated log pays one
// extra network write per fsync rather than per record. A non-nil error
// fails the batch's appends (the records are already in the local WAL —
// the same partial-failure surface an fsync error has always had; the
// write-ahead discipline of the callers keeps RAM consistent and the
// records are truncated away if this node is later fenced and resynced).
type Mirror func(records [][]byte) error

// LogStats is a snapshot of a log's cumulative durability costs. Under
// group commit Syncs may be far below Appends: concurrent appenders
// coalesce into one write+fsync.
type LogStats struct {
	Appends uint64 // records acknowledged as durable
	Writes  uint64 // WAL file writes (one per coalesced batch)
	Syncs   uint64 // WAL fsyncs
}

// Stats reports the log's cumulative append/write/fsync counts.
func (l *Log) Stats() LogStats {
	return LogStats{
		Appends: l.statAppends.Load(),
		Writes:  l.statWrites.Load(),
		Syncs:   l.statSyncs.Load(),
	}
}

// Open scans dir (creating it if needed), recovers the newest intact
// generation, truncates any torn WAL tail, and returns the log ready for
// appends plus what was recovered.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: creating log dir: %w", err)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovery{}
	gen := uint64(0)
	// Recover from the newest snapshot. Compact fsyncs every snapshot
	// before renaming it into place, so a published snapshot that fails
	// validation means real damage; silently falling back would present
	// the loss of everything it held as a clean, healthy open. Refuse
	// instead and make the operator decide.
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		payload, err := readSnapshot(filepath.Join(dir, snapName(newest)))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: snapshot %s is damaged; refusing to open and silently lose its state: %w",
				snapName(newest), err)
		}
		rec.Snapshot = payload
		gen = newest
	} else if len(wals) > 0 {
		// No snapshot ever taken: recover from the oldest WAL, which
		// holds the full history since genesis. (A newer bare WAL can
		// only be the empty leftover of a compaction that crashed before
		// publishing its snapshot.)
		gen = wals[0]
	}

	walPath := filepath.Join(dir, walName(gen))
	records, validLen, err := replayWAL(walPath)
	if err != nil {
		return nil, nil, err
	}
	rec.Records = records

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening wal: %w", err)
	}
	// Physically drop the torn tail so appends continue from the last
	// complete record.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: truncating torn wal tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: seeking wal: %w", err)
	}

	l := &Log{dir: dir, opts: opts, f: f, gen: gen, records: uint64(len(records))}
	l.gcond = sync.NewCond(&l.gmu)
	l.removeOtherGenerations(snaps, wals)
	return l, rec, nil
}

// Append durably adds one record to the log.
func (l *Log) Append(record []byte) error {
	return l.AppendBatch([][]byte{record})
}

// AppendBatch adds records as one write (and, under Fsync, one fsync), so
// batched mutations pay the durability cost once.
//
// Under Fsync, concurrent AppendBatch callers additionally GROUP-commit:
// while one batch's write+fsync is in flight, every arriving append folds
// into the next batch, and a single follower then commits them all with
// one fsync (classic leader/follower group commit, as in HDFS's batched
// namenode edit sync). N concurrent appenders therefore pay O(1) fsyncs
// per disk round trip instead of N. An append returns only after the
// batch containing it is durable, so the per-caller durability contract
// is unchanged; only the cost is amortized.
func (l *Log) AppendBatch(records [][]byte) error {
	total := 0
	for _, r := range records {
		if len(r) > MaxRecord {
			return ErrRecordTooLarge
		}
		total += frameHeaderSize + len(r)
	}
	if !l.opts.Fsync {
		// No fsync to amortize: write straight through. The OS sees the
		// bytes immediately (process-crash durability), and coalescing
		// would only add handoff latency.
		buf := make([]byte, 0, total)
		for _, r := range records {
			buf = appendFrame(buf, r)
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		if _, err := l.f.Write(buf); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("durable: appending wal record: %w", err)
		}
		l.statWrites.Add(1)
		l.records += uint64(len(records))
		l.statAppends.Add(uint64(len(records)))
		// Mirror while still holding l.mu: non-fsync appends have no
		// group-commit slot, so the file lock is what serializes
		// replication into WAL order.
		var err error
		if mirror := l.getMirror(); mirror != nil {
			err = mirror(records)
		}
		l.mu.Unlock()
		return err
	}

	return l.awaitCommit(l.join(records))
}

// SetMirror attaches (or, with nil, detaches) the log's replication hook.
// The mirror sees every batch committed after the call returns; a batch
// mid-commit at the switch may or may not be mirrored — callers sequence
// role changes so that window is idle or covered by a snapshot resync.
func (l *Log) SetMirror(m Mirror) {
	l.mmu.Lock()
	l.mirror = m
	l.mmu.Unlock()
}

func (l *Log) getMirror() Mirror {
	l.mmu.Lock()
	defer l.mmu.Unlock()
	return l.mirror
}

// AppendAsync reserves the record's position in the WAL order immediately
// and returns a wait function that blocks until the record is durable
// (committing it if no one else has). The split lets a caller serialize
// "fix the order" under its own state lock while paying the fsync outside
// it, so independent mutators group-commit instead of queueing their
// fsyncs behind one another. The caller MUST invoke wait; an unawaited
// record may never reach disk. Not available on a non-Fsync log (writes
// are synchronous there): the record is appended before returning and
// wait only reports the result.
func (l *Log) AppendAsync(record []byte) (wait func() error) {
	if len(record) > MaxRecord {
		return func() error { return ErrRecordTooLarge }
	}
	if !l.opts.Fsync {
		err := l.AppendBatch([][]byte{record})
		return func() error { return err }
	}
	b := l.join([][]byte{record})
	return func() error { return l.awaitCommit(b) }
}

// join folds records into the batch currently accumulating (starting one
// if needed), fixing their WAL order. Records within a batch keep join
// order and batches commit in creation order, so join order IS replay
// order.
func (l *Log) join(records [][]byte) *commitBatch {
	mirrored := l.getMirror() != nil
	l.gmu.Lock()
	defer l.gmu.Unlock()
	if l.cur == nil {
		l.cur = &commitBatch{}
	}
	b := l.cur
	for _, r := range records {
		b.buf = appendFrame(b.buf, r)
		if mirrored {
			b.recs = append(b.recs, r)
		}
	}
	b.n += uint64(len(records))
	return b
}

// awaitCommit blocks until batch b is durable, becoming its leader (the
// one caller that performs the write+fsync) if no commit is in flight.
// Whoever leaves the wait loop first with the batch still uncommitted
// leads it; everyone else waits for the leader's broadcast.
func (l *Log) awaitCommit(b *commitBatch) error {
	l.gmu.Lock()
	for {
		if b.done {
			err := b.err
			l.gmu.Unlock()
			return err
		}
		if !l.committing {
			break
		}
		l.gcond.Wait()
	}
	// b is uncommitted and nothing is in flight, so b is still l.cur
	// (batches leave cur only by being taken by a leader).
	l.committing = true
	l.cur = nil // appends arriving during our fsync form the next batch
	l.gmu.Unlock()

	err := l.commitFile(b)

	// Mirror after local durability, while this batch still owns the
	// commit slot: the next batch's leader cannot start until committing
	// clears below, so mirrored batches leave in exact WAL order and the
	// replication write rides the same slot as the fsync it follows.
	if err == nil && len(b.recs) > 0 {
		if mirror := l.getMirror(); mirror != nil {
			err = mirror(b.recs)
		}
	}

	l.gmu.Lock()
	b.err, b.done = err, true
	l.committing = false
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return err
}

// commitFile makes one coalesced batch durable: a single write and a
// single fsync, serialized with Compact's generation switch by l.mu.
func (l *Log) commitFile(b *commitBatch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.f.Write(b.buf); err != nil {
		return fmt.Errorf("durable: appending wal record: %w", err)
	}
	l.statWrites.Add(1)
	if hook := l.syncHook; hook != nil {
		hook()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: syncing wal: %w", err)
	}
	l.statSyncs.Add(1)
	l.records += b.n
	l.statAppends.Add(b.n)
	return nil
}

// Records reports how many records the current generation holds (recovered
// plus appended); callers use it to decide when to Compact.
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Compact atomically replaces the log's contents with one snapshot: the
// next replay will see snapshot plus only records appended after this
// call. The caller must ensure snapshot reflects every record appended so
// far (typically by excluding concurrent mutators around the call).
func (l *Log) Compact(snapshot []byte) error {
	if len(snapshot) > MaxRecord {
		return ErrRecordTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	next := l.gen + 1

	// 1. Write the snapshot to a temp file and fsync it, so the rename
	// below never publishes a partially written snapshot.
	tmp := filepath.Join(l.dir, snapName(next)+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating snapshot: %w", err)
	}
	if _, err := tf.Write(appendFrame(nil, snapshot)); err != nil {
		tf.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("durable: syncing snapshot: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("durable: closing snapshot: %w", err)
	}

	// 2. Create the new generation's WAL BEFORE publishing the snapshot:
	// once the rename lands, recovery prefers the new generation, so from
	// that instant every future append must go to the new WAL. Creating
	// it first means a failure here leaves the old generation fully
	// authoritative (the unpublished .tmp and empty WAL are cleaned up by
	// the next Open).
	nf, err := os.OpenFile(filepath.Join(l.dir, walName(next)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: creating new wal: %w", err)
	}

	// 3. Atomically publish the snapshot and switch generations.
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(next))); err != nil {
		nf.Close()
		os.Remove(filepath.Join(l.dir, walName(next)))
		return fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	syncDir(l.dir)
	old, oldGen := l.f, l.gen
	l.f, l.gen, l.records = nf, next, 0
	old.Close()
	os.Remove(filepath.Join(l.dir, walName(oldGen)))
	os.Remove(filepath.Join(l.dir, snapName(oldGen)))
	return nil
}

// Close flushes (fsyncs) and closes the log. Further operations fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// appendFrame appends one framed record to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// replayWAL reads every complete, CRC-valid record from path, stopping at
// the first torn or corrupt frame. It returns the records and the byte
// offset of the valid prefix (where appends should resume). A missing file
// is an empty log.
func replayWAL(path string) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: reading wal: %w", err)
	}
	records, valid := ReplayBuffer(data)
	return records, valid, nil
}

// ReplayBuffer decodes framed records from data, stopping at the first
// incomplete or corrupt frame. It returns the decoded records and the
// length of the valid prefix. The returned records alias data.
func ReplayBuffer(data []byte) ([][]byte, int64) {
	var records [][]byte
	off := int64(0)
	for {
		rec, n, ok := decodeFrame(data[off:])
		if !ok {
			return records, off
		}
		records = append(records, rec)
		off += n
	}
}

// decodeFrame decodes one frame from the front of data, reporting its
// total encoded length. ok is false for a torn or corrupt frame.
func decodeFrame(data []byte) (payload []byte, n int64, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, 0, false
	}
	size := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if size > MaxRecord || int64(size) > int64(len(data)-frameHeaderSize) {
		return nil, 0, false
	}
	payload = data[frameHeaderSize : frameHeaderSize+int64(size)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, false
	}
	return payload, frameHeaderSize + int64(size), true
}

// readSnapshot loads and validates one snapshot file: exactly one framed
// record with nothing after it.
func readSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, n, ok := decodeFrame(data)
	if !ok || n != int64(len(data)) {
		return nil, fmt.Errorf("durable: invalid snapshot %s", path)
	}
	return payload, nil
}

// scanDir lists the snapshot and WAL generations present in dir, sorted
// ascending. Leftover .tmp files from interrupted compactions are removed.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: scanning log dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".bin"):
			if g, err := strconv.ParseUint(name[5:len(name)-4], 10, 64); err == nil {
				snaps = append(snaps, g)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if g, err := strconv.ParseUint(name[4:len(name)-4], 10, 64); err == nil {
				wals = append(wals, g)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// removeOtherGenerations deletes every snapshot/WAL file not belonging to
// the recovered generation (leftovers of interrupted compactions).
func (l *Log) removeOtherGenerations(snaps, wals []uint64) {
	for _, g := range snaps {
		if g != l.gen {
			os.Remove(filepath.Join(l.dir, snapName(g)))
		}
	}
	for _, g := range wals {
		if g != l.gen {
			os.Remove(filepath.Join(l.dir, walName(g)))
		}
	}
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%d.bin", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%d.log", gen) }

// syncDir fsyncs a directory so a rename within it is durable. Errors are
// ignored: some filesystems refuse directory fsync, and the rename itself
// is still atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
