package chunk

import (
	"container/list"
	"sync"
)

// CachedStore layers a RAM LRU cache over a backing Store. This reproduces
// §IV-B: "persistent data and metadata storage while keeping our initial
// RAM-based storage scheme as an underlying caching mechanism". Writes go
// through to the backing store and populate the cache; reads are served
// from RAM when possible.
type CachedStore struct {
	backing Store

	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[Key]*list.Element

	hits   int64
	misses int64

	// Frequency-based admission for ranged reads: GetRange misses do not
	// populate the cache (see GetRange), but a chunk that keeps getting
	// range-missed is evidently hot, so after rangeAdmitAfter misses the
	// next one promotes it to a full-chunk cache fill.
	rangeMisses map[Key]uint8
	rangeAdmits int64
}

// rangeAdmitAfter is how many ranged misses a chunk takes before the next
// one admits the whole chunk into the cache.
const rangeAdmitAfter = 3

// rangeMissTrackMax bounds the miss-counter map; when full it is reset
// wholesale (approximate counting is fine — this is an admission
// heuristic, not an accounting structure).
const rangeMissTrackMax = 4096

type cacheEntry struct {
	key  Key
	data []byte
}

// NewCachedStore wraps backing with an LRU cache of capacityBytes. A
// non-positive capacity disables caching (all calls pass through).
func NewCachedStore(backing Store, capacityBytes int64) *CachedStore {
	return &CachedStore{
		backing:     backing,
		capacity:    capacityBytes,
		order:       list.New(),
		entries:     make(map[Key]*list.Element),
		rangeMisses: make(map[Key]uint8),
	}
}

func (s *CachedStore) cachePut(k Key, data []byte) {
	if s.capacity <= 0 || int64(len(data)) > s.capacity {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		return
	}
	el := s.order.PushFront(&cacheEntry{key: k, data: data})
	s.entries[k] = el
	s.used += int64(len(data))
	for s.used > s.capacity {
		back := s.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		s.order.Remove(back)
		delete(s.entries, ent.key)
		s.used -= int64(len(ent.data))
	}
}

func (s *CachedStore) cacheGet(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

func (s *CachedStore) cacheDelete(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		ent := el.Value.(*cacheEntry)
		s.order.Remove(el)
		delete(s.entries, k)
		s.used -= int64(len(ent.data))
	}
	delete(s.rangeMisses, k)
}

// noteRangeMiss bumps the chunk's ranged-miss counter and reports whether
// this miss crosses the admission threshold.
func (s *CachedStore) noteRangeMiss(k Key) bool {
	if s.capacity <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rangeMisses) >= rangeMissTrackMax {
		if _, ok := s.rangeMisses[k]; !ok {
			s.rangeMisses = make(map[Key]uint8)
		}
	}
	n := s.rangeMisses[k] + 1
	if n < rangeAdmitAfter {
		s.rangeMisses[k] = n
		return false
	}
	delete(s.rangeMisses, k)
	return true
}

// Put writes through to the backing store and, on success, caches a copy.
func (s *CachedStore) Put(k Key, data []byte) error {
	if err := s.backing.Put(k, data); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.cachePut(k, cp)
	return nil
}

// GetInto serves from cache when possible, falling back to the backing
// store and populating the cache on a miss. The cache keeps what it
// reads, so a miss reads into a slice of its own, never into buf.
func (s *CachedStore) GetInto(k Key, _ []byte) ([]byte, error) {
	if data, ok := s.cacheGet(k); ok {
		return data, nil
	}
	data, err := s.backing.GetInto(k, nil)
	if err != nil {
		return nil, err
	}
	s.cachePut(k, data)
	return data, nil
}

// GetRange serves the sub-range from a cached copy when present and
// otherwise reads only the requested bytes from the backing store. A
// ranged miss usually does not populate the cache: caching a partial
// chunk under the full chunk's key would poison later reads, and
// materializing the whole chunk on every ranged read would defeat the
// point of a ranged read. But a chunk that keeps getting range-missed is
// hot despite never being read whole, so after rangeAdmitAfter misses
// the next one pays for a full backing read and admits the chunk.
func (s *CachedStore) GetRange(k Key, off, length uint64) ([]byte, error) {
	if data, ok := s.cacheGet(k); ok {
		return clipRange(data, off, length), nil
	}
	if s.noteRangeMiss(k) {
		if data, err := s.backing.GetInto(k, nil); err == nil {
			s.cachePut(k, data)
			s.mu.Lock()
			s.rangeAdmits++
			s.mu.Unlock()
			return clipRange(data, off, length), nil
		}
		// Full read failed (e.g. concurrent delete); fall through to the
		// ranged path so the caller sees the backing store's own error.
	}
	return s.backing.GetRange(k, off, length)
}

// Has consults the backing store (authoritative).
func (s *CachedStore) Has(k Key) bool { return s.backing.Has(k) }

// Size delegates to the backing store when it tracks sizes.
func (s *CachedStore) Size(k Key) (int64, bool) {
	if sz, ok := s.backing.(interface{ Size(Key) (int64, bool) }); ok {
		return sz.Size(k)
	}
	return 0, false
}

// Delete removes from both layers.
func (s *CachedStore) Delete(k Key) error {
	s.cacheDelete(k)
	return s.backing.Delete(k)
}

// Len reports the backing store's chunk count.
func (s *CachedStore) Len() int { return s.backing.Len() }

// Bytes reports the backing store's payload bytes.
func (s *CachedStore) Bytes() int64 { return s.backing.Bytes() }

// Keys reports the backing store's keys.
func (s *CachedStore) Keys() []Key { return s.backing.Keys() }

// Close closes the backing store.
func (s *CachedStore) Close() error { return s.backing.Close() }

// CacheStats reports hits, misses and resident bytes.
func (s *CachedStore) CacheStats() (hits, misses, residentBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.used
}

// RangeAdmits reports how many chunks frequency-based admission promoted
// to full-chunk residency off ranged reads.
func (s *CachedStore) RangeAdmits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rangeAdmits
}
