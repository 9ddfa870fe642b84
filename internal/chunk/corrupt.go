// Fault injection for integrity testing: every store engine can flip a
// byte of a stored chunk in place, simulating bit-rot on a live replica
// the way KillProvider simulates a crash. Production code never calls
// these — they exist so corruption scenarios are scriptable from the
// cluster harness (cluster.CorruptChunk) and from unit tests.
package chunk

import (
	"fmt"
	"os"
	"sync"
)

// Corruptor is implemented by store engines that support injecting
// bit-rot for tests: Corrupt flips one byte of the stored chunk at off,
// bypassing immutability.
type Corruptor interface {
	Corrupt(k Key, off uint64) error
}

// Corrupt flips the byte at off in the stored copy.
func (s *MemStore) Corrupt(k Key, off uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if off >= uint64(len(d)) {
		return fmt.Errorf("chunk: corrupt offset %d beyond %s (%d bytes)", off, k, len(d))
	}
	// GetInto hands out the internal slice, so mutate a copy: a reader that
	// already holds the old slice keeps its (clean) bytes, exactly like a
	// page cache holding pre-rot data.
	cp := make([]byte, len(d))
	copy(cp, d)
	cp[off] ^= 0xFF
	s.data[k] = cp
	return nil
}

// Corrupt flips the byte at off in the chunk's file on disk.
func (s *DiskStore) Corrupt(k Key, off uint64) error {
	s.mu.RLock()
	size, ok := s.sizes[k]
	s.mu.RUnlock()
	if !ok || size < 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if off >= uint64(size) {
		return fmt.Errorf("chunk: corrupt offset %d beyond %s (%d bytes)", off, k, size)
	}
	f, err := os.OpenFile(s.path(k), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("chunk: opening %s for corruption: %w", k, err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], int64(off)); err != nil {
		return fmt.Errorf("chunk: reading %s for corruption: %w", k, err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], int64(off)); err != nil {
		return fmt.Errorf("chunk: corrupting %s: %w", k, err)
	}
	return nil
}

// Corrupt damages the backing copy and drops any cached copy, so the
// next read observes the rot instead of being masked by RAM.
func (s *CachedStore) Corrupt(k Key, off uint64) error {
	c, ok := s.backing.(Corruptor)
	if !ok {
		return fmt.Errorf("chunk: backing store %T cannot inject corruption", s.backing)
	}
	if err := c.Corrupt(k, off); err != nil {
		return err
	}
	s.cacheDelete(k)
	return nil
}

// TamperStore wraps any Store and lets tests corrupt chunks even when the
// backing engine does not implement Corruptor: tampered keys have one
// byte flipped on the way out of GetInto/GetRange, the stored bytes stay
// pristine. It doubles as a read-path-corruption simulator (bad NIC, bad
// RAM between disk and wire).
type TamperStore struct {
	Store

	mu       sync.Mutex
	tampered map[Key]uint64 // key -> flipped byte offset
}

// NewTamperStore wraps backing.
func NewTamperStore(backing Store) *TamperStore {
	return &TamperStore{Store: backing, tampered: make(map[Key]uint64)}
}

// Tamper marks k so reads return its bytes with the byte at off flipped.
func (s *TamperStore) Tamper(k Key, off uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tampered[k] = off
}

// Corrupt implements Corruptor by tampering (the stored copy is not
// touched, but every subsequent read misverifies identically).
func (s *TamperStore) Corrupt(k Key, off uint64) error {
	if !s.Has(k) {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	s.Tamper(k, off)
	return nil
}

func (s *TamperStore) flip(k Key, data []byte, base uint64) []byte {
	s.mu.Lock()
	off, ok := s.tampered[k]
	s.mu.Unlock()
	if !ok || off < base || off-base >= uint64(len(data)) {
		return data
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	cp[off-base] ^= 0xFF
	return cp
}

// GetInto returns the stored bytes, tampered if marked. A tampered read
// is a fresh copy, so buf and the stored bytes stay untouched.
func (s *TamperStore) GetInto(k Key, buf []byte) ([]byte, error) {
	data, err := s.Store.GetInto(k, buf)
	if err != nil {
		return nil, err
	}
	return s.flip(k, data, 0), nil
}

// GetRange returns the stored range, tampered if the flipped byte falls
// inside it.
func (s *TamperStore) GetRange(k Key, off, length uint64) ([]byte, error) {
	data, err := s.Store.GetRange(k, off, length)
	if err != nil {
		return nil, err
	}
	return s.flip(k, data, off), nil
}

// Delete clears any tamper mark along with the chunk.
func (s *TamperStore) Delete(k Key) error {
	s.mu.Lock()
	delete(s.tampered, k)
	s.mu.Unlock()
	return s.Store.Delete(k)
}
