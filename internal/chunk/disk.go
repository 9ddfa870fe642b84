package chunk

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/wire"
)

// DiskStore persists chunks in append-only pack files under a directory.
// This is the "persistent data storage" added in §IV-B. Each Put appends
// one record, a header naming the key and length followed by the payload,
// to the pack this open of the store writes; a new open never appends to
// an older pack. The index of every key's pack, offset and length is kept
// in memory and rebuilt at open by walking the record headers, without
// reading a payload, so a provider restarted after a crash recovers its
// inventory. A read is one pread on a pack descriptor that stays open.
//
// Chunk bytes are not fsynced unless syncWrites is set: a process crash
// loses nothing acknowledged (the page cache survives it), a machine
// crash may.
type DiskStore struct {
	dir  string
	sync bool

	// wmu serializes appends, so records land in the order they were
	// placed and a crash leaves at most one incomplete record, at the tail
	// of the pack being written. It guards next, enc and the active pack's
	// end.
	// Lock order: wmu, then mu.
	wmu  sync.Mutex
	next int // id of the next pack to create
	enc  wire.Encoder

	mu     sync.RWMutex
	index  map[Key]loc
	packs  map[*pack]struct{} // every open pack
	active *pack              // written by Put; changed under wmu and mu
	bytes  int64
}

// pack is one open pack file.
type pack struct {
	f    *os.File
	live int   // indexed records, plus records a Delete is retiring; guarded by mu
	end  int64 // append offset of the active pack; guarded by wmu
}

// loc places one record: its header at off, then size payload bytes, of
// which n are in the file (fewer only when the pack was cut short
// behind the store's back).
type loc struct {
	p       *pack
	off     int64
	size, n int64
}

const (
	// headerSize is the size of a record header.
	headerSize = 32
	// deadBit, the top bit of the header's length word, flags a deleted
	// record. The header's sum does not cover it, so Delete sets it with a
	// one-byte write that a crash cannot tear.
	deadBit = 1 << 31
	// deadByte is the offset in a header of the length word's top byte.
	deadByte = 27
	// packLimit is the size past which Put starts a new pack. A record
	// larger than that gets a pack of its own.
	packLimit = 64 << 20
	// punchBlock aligns the holes Delete punches. A partial block inside
	// the range would only be zeroed, so any file-system block size stays
	// correct; this one frees whole 4 KiB blocks without writing any.
	punchBlock = 4096
	packSuffix = ".pack"
)

// header is a pack record's header, headerSize bytes before its payload.
type header struct {
	Key Key
	// Word is the payload length, with deadBit set once the record is
	// deleted.
	Word uint32
	// Sum is the CRC-32C of the bytes before it, with deadBit clear.
	Sum uint32
}

// Wire codes the header's fields, in file order.
func (h *header) Wire(c *wire.Codec) {
	h.Key.Wire(c)
	c.U32(&h.Word)
	c.U32(&h.Sum)
}

// headerSum is the sum of an encoded header: everything before the Sum
// field, with the dead bit taken as clear.
func headerSum(b []byte) uint32 {
	var w [headerSize - 4]byte
	copy(w[:], b)
	w[deadByte] &^= deadBit >> 24
	return crc32.Checksum(w[:], castagnoli)
}

// encodeHeader returns the header of a live record of n bytes under k,
// encoded in e.
func encodeHeader(e *wire.Encoder, k Key, n int) []byte {
	h := header{Key: k, Word: uint32(n)}
	e.Reset()
	h.Wire(e.Codec())
	h.Sum = headerSum(e.Bytes())
	e.Reset()
	h.Wire(e.Codec())
	return e.Bytes()
}

// decodeHeader decodes the header at the start of b; ok is false when b is
// too short or the sum does not match, which is how a header a crash never
// wrote reads.
func decodeHeader(b []byte) (h header, ok bool) {
	if len(b) < headerSize {
		return header{}, false
	}
	d := wire.NewDecoder(b[:headerSize])
	h.Wire(d.Codec())
	return h, d.Err() == nil && h.Sum == headerSum(b)
}

func packName(id int) string { return fmt.Sprintf("%08d%s", id, packSuffix) }

// parsePackName returns the id of a pack file name, ok false for any other
// name.
func parsePackName(name string) (int, bool) {
	digits, ok := strings.CutSuffix(name, packSuffix)
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(digits)
	return id, err == nil && id >= 0 && packName(id) == name
}

// NewDiskStore opens (creating if needed) a chunk directory, which it then
// owns. Each pack's record headers are walked to rebuild the index; a tail
// with no valid header, the debris of a Put a crash cut short, is
// truncated, and a pack with no live record is removed. A directory
// holding the per-chunk files of the format before pack files is refused.
// If syncWrites is true every Put is fdatasynced before returning.
func NewDiskStore(dir string, syncWrites bool) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunk: creating store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("chunk: scanning store dir: %w", err)
	}
	s := &DiskStore{dir: dir, sync: syncWrites, index: make(map[Key]loc), packs: make(map[*pack]struct{})}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".chunk") || strings.HasPrefix(name, "put-") {
			return nil, fmt.Errorf("chunk: %s holds %s, a file of the one-file-per-chunk format; this store reads pack files only, so move the old chunks out or start the provider on an empty directory", dir, name)
		}
		if id, ok := parsePackName(name); ok && e.Type().IsRegular() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := s.load(id); err != nil {
			s.Close()
			return nil, err
		}
		s.next = id + 1
	}
	for p := range s.packs {
		if p.live == 0 {
			delete(s.packs, p)
			if err := s.remove(p); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	return s, nil
}

// load opens pack id and indexes its live records. A key recorded again
// by a later record (a Delete whose dead flag a crash cut off, then a new
// Put) takes the later one.
func (s *DiskStore) load(id int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, packName(id)), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("chunk: opening pack: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("chunk: opening pack: %w", err)
	}
	p := &pack{f: f}
	s.packs[p] = struct{}{}
	size := st.Size()
	var hb [headerSize]byte
	off := int64(0)
	for off+headerSize <= size {
		if _, err := f.ReadAt(hb[:], off); err != nil {
			return fmt.Errorf("chunk: reading %s at %d: %w", f.Name(), off, err)
		}
		h, ok := decodeHeader(hb[:])
		if !ok {
			break
		}
		l := loc{p: p, off: off, size: int64(h.Word &^ deadBit)}
		l.n = min(l.size, size-off-headerSize)
		if h.Word&deadBit == 0 {
			if old, dup := s.index[h.Key]; dup {
				old.p.live--
				s.bytes -= old.n
			}
			s.index[h.Key] = l
			p.live++
			s.bytes += l.n
		}
		off += headerSize + l.size
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("chunk: truncating crash debris of %s: %w", f.Name(), err)
		}
	}
	return nil
}

// remove closes and deletes a pack no longer in s.packs.
func (s *DiskStore) remove(p *pack) error {
	p.f.Close()
	if err := os.Remove(p.f.Name()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("chunk: removing empty pack: %w", err)
	}
	return nil
}

// appendTo returns the pack a record of n payload bytes goes to: the
// active one while it has room, else a new one. Called with wmu held.
func (s *DiskStore) appendTo(n int) (*pack, error) {
	if p := s.active; p != nil && (p.end == 0 || p.end+headerSize+int64(n) <= packLimit) {
		return p, nil
	}
	if err := s.seal(); err != nil {
		return nil, err
	}
	for {
		id := s.next
		s.next++
		f, err := os.OpenFile(filepath.Join(s.dir, packName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue // another open of the directory made it
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: creating pack: %w", err)
		}
		p := &pack{f: f}
		s.mu.Lock()
		s.packs[p] = struct{}{}
		s.active = p
		s.mu.Unlock()
		return p, nil
	}
}

// seal stops appending to the active pack, removing it if no record in it
// is live. Called with wmu held.
func (s *DiskStore) seal() error {
	s.mu.Lock()
	p := s.active
	s.active = nil
	empty := p != nil && p.live == 0
	if empty {
		delete(s.packs, p)
	}
	s.mu.Unlock()
	if empty {
		return s.remove(p)
	}
	return nil
}

// Put appends the chunk to the active pack: the payload first, then its
// header, so a crash between the two leaves a tail with no valid header,
// which the next open truncates, and never a half chunk under a valid key.
// A failed write seals the pack: what it left there is never appended to.
func (s *DiskStore) Put(k Key, data []byte) error {
	if len(data) > wire.MaxChunk {
		return fmt.Errorf("chunk: %s is %d bytes, over the %d-byte limit", k, len(data), wire.MaxChunk)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.Has(k) {
		return fmt.Errorf("%w: %s", ErrDuplicate, k)
	}
	p, err := s.appendTo(len(data))
	if err != nil {
		return err
	}
	off := p.end
	if _, err := p.f.WriteAt(data, off+headerSize); err != nil {
		return errors.Join(fmt.Errorf("chunk: writing %s: %w", k, err), s.seal())
	}
	if _, err := p.f.WriteAt(encodeHeader(&s.enc, k, len(data)), off); err != nil {
		return errors.Join(fmt.Errorf("chunk: writing %s: %w", k, err), s.seal())
	}
	if s.sync {
		if err := datasync(p.f); err != nil {
			return errors.Join(fmt.Errorf("chunk: syncing %s: %w", k, err), s.seal())
		}
	}
	n := int64(len(data))
	p.end = off + headerSize + n
	s.mu.Lock()
	s.index[k] = loc{p: p, off: off, size: n, n: n}
	p.live++
	s.bytes += n
	s.mu.Unlock()
	return nil
}

// lookup returns k's record.
func (s *DiskStore) lookup(k Key) (loc, error) {
	s.mu.RLock()
	l, ok := s.index[k]
	s.mu.RUnlock()
	if !ok {
		return loc{}, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return l, nil
}

// read fills buf from the payload of k's record l at off and returns the
// bytes the pack holds there. A Delete racing the read removes k from the
// index before it touches the record, so the read looks again once its
// bytes are in: if k no longer names l, they may be punched zeros, and the
// read reports ErrNotFound.
func (s *DiskStore) read(k Key, l loc, buf []byte, off int64) ([]byte, error) {
	n, err := l.p.f.ReadAt(buf, l.off+headerSize+off)
	s.mu.RLock()
	cur, ok := s.index[k]
	s.mu.RUnlock()
	if !ok || cur != l {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("chunk: reading %s: %w", k, err)
	}
	return buf[:n], nil
}

// Get reads the chunk bytes from disk into a fresh slice: GetInto with
// no buffer.
func (s *DiskStore) Get(k Key) ([]byte, error) { return s.GetInto(k, nil) }

// GetInto reads the chunk into buf when its capacity holds the indexed
// length, and into a fresh slice otherwise. The result is what the pack
// holds: a record cut short behind the store's back comes back short, so
// the provider's length-and-digest check rejects it.
func (s *DiskStore) GetInto(k Key, buf []byte) ([]byte, error) {
	l, err := s.lookup(k)
	if err != nil {
		return nil, err
	}
	if int64(cap(buf)) < l.n {
		buf = make([]byte, l.n)
	}
	return s.read(k, l, buf[:l.n], 0)
}

// GetRange reads only the requested bytes of the chunk: a boundary read
// of a few bytes does not drag the whole chunk off disk.
func (s *DiskStore) GetRange(k Key, off, length uint64) ([]byte, error) {
	l, err := s.lookup(k)
	if err != nil {
		return nil, err
	}
	off, end := clipBounds(uint64(l.n), off, length)
	if off >= end {
		return nil, nil
	}
	return s.read(k, l, make([]byte, end-off), int64(off))
}

// Size reports a stored chunk's byte size from the index, without touching
// the pack. Providers cross-check it against the sidecar's recorded length
// on boot to catch records cut short.
func (s *DiskStore) Size(k Key) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.index[k]
	return l.n, ok
}

// Has reports whether k is stored.
func (s *DiskStore) Has(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[k]
	return ok
}

// Delete removes k if present: k leaves the index, its record's dead flag
// is set, the whole blocks of its payload are punched out of the pack, and
// a pack no longer written whose last live record this was is removed.
func (s *DiskStore) Delete(k Key) error {
	s.mu.Lock()
	l, ok := s.index[k]
	if ok {
		delete(s.index, k)
		s.bytes -= l.n
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	// The record still counts in l.p.live, so its pack stays open until it
	// is retired.
	err := retire(l)
	s.mu.Lock()
	l.p.live--
	gone := l.p.live == 0 && l.p != s.active
	if gone {
		delete(s.packs, l.p)
	}
	s.mu.Unlock()
	if gone {
		err = errors.Join(err, s.remove(l.p))
	}
	return err
}

// retire sets l's dead flag and punches its payload's whole blocks out.
func retire(l loc) error {
	dead := []byte{byte(l.size>>24) | deadBit>>24}
	if _, err := l.p.f.WriteAt(dead, l.off+deadByte); err != nil {
		return fmt.Errorf("chunk: flagging %s record at %d dead: %w", l.p.f.Name(), l.off, err)
	}
	lo := (l.off + headerSize + punchBlock - 1) / punchBlock * punchBlock
	hi := (l.off + headerSize + l.n) / punchBlock * punchBlock
	if hi <= lo {
		return nil
	}
	if err := punchHole(l.p.f, lo, hi-lo); err != nil {
		return fmt.Errorf("chunk: punching %s [%d,%d): %w", l.p.f.Name(), lo, hi, err)
	}
	return nil
}

// Len reports the number of chunks.
func (s *DiskStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Bytes reports total stored payload bytes.
func (s *DiskStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns all stored keys in sorted order.
func (s *DiskStore) Keys() []Key {
	s.mu.RLock()
	out := make([]Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Close closes every pack file; the store is unusable afterwards.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for p := range s.packs {
		errs = append(errs, p.f.Close())
	}
	return errors.Join(errs...)
}
