// Fault injection for integrity testing: every store engine can flip a
// byte of a stored chunk in place, simulating bit-rot on a live replica
// the way KillProvider simulates a crash. Production code never calls
// these — they exist so corruption scenarios are scriptable from the
// cluster harness (cluster.CorruptChunk) and from unit tests.
package chunk

import "fmt"

// Corruptor is implemented by every store engine, for injecting bit-rot
// in tests: Corrupt flips one byte of the stored chunk at off, bypassing
// immutability.
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

// Corrupt flips the byte at off in the chunk's payload in its pack.
func (s *DiskStore) Corrupt(k Key, off uint64) error {
	l, err := s.lookup(k)
	if err != nil {
		return err
	}
	if off >= uint64(l.n) {
		return fmt.Errorf("chunk: corrupt offset %d beyond %s (%d bytes)", off, k, l.n)
	}
	at := l.off + headerSize + int64(off)
	var b [1]byte
	if _, err := l.p.f.ReadAt(b[:], at); err != nil {
		return fmt.Errorf("chunk: reading %s for corruption: %w", k, err)
	}
	b[0] ^= 0xFF
	if _, err := l.p.f.WriteAt(b[:], at); err != nil {
		return fmt.Errorf("chunk: corrupting %s: %w", k, err)
	}
	return nil
}
