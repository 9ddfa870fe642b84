package chunk

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DiskStore persists each chunk as a file under a directory; the index of
// present keys and sizes is kept in memory and rebuilt from the directory
// on open, so a provider restarted after a crash recovers its inventory.
// This is the "persistent data storage" added in §IV-B.
type DiskStore struct {
	dir string

	mu    sync.RWMutex
	sizes map[Key]int64
	bytes int64
	sync  bool
}

// NewDiskStore opens (creating if needed) a chunk directory. If syncWrites
// is true every Put is fsynced before returning.
func NewDiskStore(dir string, syncWrites bool) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunk: creating store dir: %w", err)
	}
	s := &DiskStore{dir: dir, sizes: make(map[Key]int64), sync: syncWrites}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("chunk: scanning store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		k, ok := parseChunkName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.sizes[k] = info.Size()
		s.bytes += info.Size()
	}
	return s, nil
}

func chunkName(k Key) string {
	return fmt.Sprintf("%d-%d-%d.chunk", k.Blob, k.Version, k.Index)
}

func parseChunkName(name string) (Key, bool) {
	if !strings.HasSuffix(name, ".chunk") {
		return Key{}, false
	}
	var k Key
	_, err := fmt.Sscanf(strings.TrimSuffix(name, ".chunk"), "%d-%d-%d", &k.Blob, &k.Version, &k.Index)
	return k, err == nil
}

func (s *DiskStore) path(k Key) string { return filepath.Join(s.dir, chunkName(k)) }

// Put writes the chunk to a temp file and renames it into place, so a
// crash mid-write never leaves a half chunk under a valid name.
func (s *DiskStore) Put(k Key, data []byte) error {
	s.mu.Lock()
	if _, dup := s.sizes[k]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, k)
	}
	// Reserve the key so concurrent Puts of the same key conflict cleanly.
	s.sizes[k] = -1
	s.mu.Unlock()

	undo := func() {
		s.mu.Lock()
		delete(s.sizes, k)
		s.mu.Unlock()
	}

	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		undo()
		return fmt.Errorf("chunk: temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		undo()
		return fmt.Errorf("chunk: writing %s: %w", k, err)
	}
	if s.sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			undo()
			return fmt.Errorf("chunk: syncing %s: %w", k, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		undo()
		return fmt.Errorf("chunk: closing %s: %w", k, err)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		undo()
		return fmt.Errorf("chunk: publishing %s: %w", k, err)
	}
	s.mu.Lock()
	s.sizes[k] = int64(len(data))
	s.bytes += int64(len(data))
	s.mu.Unlock()
	return nil
}

// Get reads the chunk bytes from disk into a fresh slice: GetInto with
// no buffer.
func (s *DiskStore) Get(k Key) ([]byte, error) { return s.GetInto(k, nil) }

// GetInto reads the chunk file into buf when its capacity holds the
// manifest size, and into a fresh slice otherwise. The result is whatever
// the file holds: a file truncated or extended behind the store's back
// comes back shorter or longer than the manifest, so the provider's
// length-and-digest check rejects it.
func (s *DiskStore) GetInto(k Key, buf []byte) ([]byte, error) {
	s.mu.RLock()
	size, ok := s.sizes[k]
	s.mu.RUnlock()
	if !ok || size < 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	f, err := os.Open(s.path(k))
	if err != nil {
		return nil, fmt.Errorf("chunk: reading %s: %w", k, err)
	}
	defer f.Close()
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	n, err := io.ReadFull(f, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return buf[:n], nil
	}
	if err != nil {
		return nil, fmt.Errorf("chunk: reading %s: %w", k, err)
	}
	var probe [1]byte
	if m, _ := f.Read(probe[:]); m == 0 {
		return buf, nil
	}
	// Longer than the manifest: return every byte, in a fresh slice.
	rest, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("chunk: reading %s: %w", k, err)
	}
	out := make([]byte, 0, len(buf)+1+len(rest))
	out = append(append(out, buf...), probe[0])
	return append(out, rest...), nil
}

// GetRange reads only the requested bytes from the chunk file — a
// boundary read of a few bytes does not drag the whole chunk off disk.
func (s *DiskStore) GetRange(k Key, off, length uint64) ([]byte, error) {
	s.mu.RLock()
	size, ok := s.sizes[k]
	s.mu.RUnlock()
	if !ok || size < 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	off, end := clipBounds(uint64(size), off, length)
	if off >= end {
		return nil, nil
	}
	f, err := os.Open(s.path(k))
	if err != nil {
		return nil, fmt.Errorf("chunk: opening %s: %w", k, err)
	}
	defer f.Close()
	buf := make([]byte, end-off)
	if _, err := io.ReadFull(io.NewSectionReader(f, int64(off), int64(end-off)), buf); err != nil {
		return nil, fmt.Errorf("chunk: reading %s [%d,%d): %w", k, off, end, err)
	}
	return buf, nil
}

// Size reports a stored chunk's byte size from the in-memory manifest,
// without touching the file. Providers cross-check it against the
// sidecar's recorded length on boot to catch torn or truncated files.
func (s *DiskStore) Size(k Key) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	size, ok := s.sizes[k]
	if !ok || size < 0 {
		return 0, false
	}
	return size, true
}

// Has reports whether k is stored.
func (s *DiskStore) Has(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	size, ok := s.sizes[k]
	return ok && size >= 0
}

// Delete removes k's file if present.
func (s *DiskStore) Delete(k Key) error {
	s.mu.Lock()
	size, ok := s.sizes[k]
	if ok {
		delete(s.sizes, k)
		if size > 0 {
			s.bytes -= size
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := os.Remove(s.path(k)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("chunk: deleting %s: %w", k, err)
	}
	return nil
}

// Len reports the number of chunks.
func (s *DiskStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sizes)
}

// Bytes reports total stored payload bytes.
func (s *DiskStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns all fully written keys in sorted order.
func (s *DiskStore) Keys() []Key {
	s.mu.RLock()
	out := make([]Key, 0, len(s.sizes))
	for k, size := range s.sizes {
		if size >= 0 {
			out = append(out, k)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Close is a no-op; files are already durable.
func (s *DiskStore) Close() error { return nil }
