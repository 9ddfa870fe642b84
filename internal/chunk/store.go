// Package chunk defines chunk identity and the storage engines data
// providers run on. The paper's storage evolution is reproduced exactly:
// the initial prototype was RAM-only (MemStore), later extended with
// persistent storage keeping RAM as a cache (DiskStore wrapped by
// CachedStore, §IV-B).
//
// Chunks are immutable: a (blob, version, index) triple is written at most
// once, by the single writer that was assigned that version. Stores may
// therefore return internal buffers from GetInto; callers must not modify
// them.
package chunk

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound is returned when a chunk is not present in a store.
var ErrNotFound = errors.New("chunk: not found")

// Key identifies one chunk of one version of one blob.
type Key struct {
	Blob    uint64
	Version uint64
	Index   uint64
}

// String renders the key as blob/version/index.
func (k Key) String() string {
	return fmt.Sprintf("%d/%d/%d", k.Blob, k.Version, k.Index)
}

// Less orders keys lexicographically (blob, version, index).
func (k Key) Less(o Key) bool {
	if k.Blob != o.Blob {
		return k.Blob < o.Blob
	}
	if k.Version != o.Version {
		return k.Version < o.Version
	}
	return k.Index < o.Index
}

// Store is the chunk storage engine contract.
type Store interface {
	// Put stores data under k. Storing the same key twice is an error:
	// chunks are immutable and a duplicate Put indicates a protocol bug.
	Put(k Key, data []byte) error
	// GetInto returns the chunk bytes. An engine that reads them from
	// storage reads them into buf when its capacity holds the chunk;
	// otherwise, and for engines that hold the bytes in RAM, the result is
	// the engine's own immutable copy or a fresh slice. No engine keeps
	// buf: the caller owns it before and after the call, may recycle it
	// once done with the result (which may alias it), and passes nil when
	// it has no buffer. The returned slice must not be modified.
	GetInto(k Key, buf []byte) ([]byte, error)
	// GetRange returns the chunk's bytes in [off, off+length), clipped
	// to the stored size; length == 0 means "to the end of the chunk".
	// Reading past the stored size yields a short (possibly empty)
	// slice, not an error — only a missing key is ErrNotFound. Like
	// GetInto, the result may alias internal buffers and must not be
	// modified. Engines serve this without materializing the whole
	// chunk where they can (DiskStore reads only the requested bytes),
	// which is what lets boundary reads move only the bytes they need.
	GetRange(k Key, off, length uint64) ([]byte, error)
	// Has reports whether k is stored.
	Has(k Key) bool
	// Delete removes k (no-op if absent). Used only by garbage collection.
	Delete(k Key) error
	// Len reports the number of stored chunks.
	Len() int
	// Bytes reports the total payload bytes stored.
	Bytes() int64
	// Keys returns a sorted snapshot of all stored keys (for
	// re-replication after failures).
	Keys() []Key
	// Close releases resources.
	Close() error
}

// ErrDuplicate is returned by Put for a key that is already stored.
var ErrDuplicate = errors.New("chunk: duplicate put for immutable chunk")

// MemStore keeps chunks in RAM. The original BlobSeer prototype's storage
// engine (§IV-A).
type MemStore struct {
	mu    sync.RWMutex
	data  map[Key][]byte
	bytes int64
}

// NewMemStore creates an empty RAM store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[Key][]byte)}
}

// Put stores a private copy of data under k.
func (s *MemStore) Put(k Key, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.data[k]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, k)
	}
	s.data[k] = cp
	s.bytes += int64(len(cp))
	return nil
}

// GetInto returns the stored bytes for k; buf is not used.
func (s *MemStore) GetInto(k Key, _ []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.data[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return d, nil
}

// GetRange returns a sub-slice of the stored bytes (chunks are immutable,
// so slicing is safe).
func (s *MemStore) GetRange(k Key, off, length uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.data[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return clipRange(d, off, length), nil
}

// Clip slices a whole chunk to the requested range, with the same
// clipping semantics as GetRange (length == 0 means "to the end"). Used
// by callers that must materialize a full chunk anyway — e.g. a provider
// verifying the digest before serving a sub-range.
func Clip(data []byte, off, length uint64) []byte {
	return clipRange(data, off, length)
}

// clipRange slices data to the clipBounds of [off, off+length).
func clipRange(data []byte, off, length uint64) []byte {
	lo, hi := clipBounds(uint64(len(data)), off, length)
	if lo >= hi {
		return nil
	}
	return data[lo:hi]
}

// clipBounds resolves a requested range [off, off+length) against a chunk
// of size bytes: length == 0 means "to the end", and both bounds clip to
// size. Offset and length arrive raw off the wire, so off+length
// overflowing uint64 must clamp to the end, not wrap below off.
func clipBounds(size, off, length uint64) (lo, hi uint64) {
	if off >= size {
		return size, size
	}
	hi = size
	if e := off + length; length > 0 && e >= off && e < hi {
		hi = e
	}
	return off, hi
}

// Has reports whether k is stored.
func (s *MemStore) Has(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.data[k]
	return ok
}

// Delete removes k if present.
func (s *MemStore) Delete(k Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.data[k]; ok {
		s.bytes -= int64(len(d))
		delete(s.data, k)
	}
	return nil
}

// Len reports the number of chunks.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Bytes reports total stored payload bytes.
func (s *MemStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns all keys in sorted order.
func (s *MemStore) Keys() []Key {
	s.mu.RLock()
	out := make([]Key, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Close is a no-op for RAM storage.
func (s *MemStore) Close() error { return nil }
