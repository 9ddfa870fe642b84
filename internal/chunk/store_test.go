package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// storeFactories enumerates every Store implementation under test.
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"disk": func() Store {
			s, err := NewDiskStore(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"disk-sync": func() Store {
			s, err := NewDiskStore(t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"cached-mem": func() Store { return NewCachedStore(NewMemStore(), 1<<20) },
		"cached-disk": func() Store {
			d, err := NewDiskStore(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			return NewCachedStore(d, 1<<20)
		},
		"cached-zero-capacity": func() Store { return NewCachedStore(NewMemStore(), 0) },
	}
}

func TestStoreContract(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			k1 := Key{Blob: 1, Version: 2, Index: 3}
			k2 := Key{Blob: 1, Version: 2, Index: 4}

			if _, err := s.GetInto(k1, nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get absent: %v, want ErrNotFound", err)
			}
			if s.Has(k1) {
				t.Fatal("Has(absent) = true")
			}
			if err := s.Put(k1, []byte("hello")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Put(k2, []byte("world!")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Put(k1, []byte("again")); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("duplicate Put: %v, want ErrDuplicate", err)
			}
			got, err := s.GetInto(k1, nil)
			if err != nil || !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if !s.Has(k2) {
				t.Fatal("Has(k2) = false")
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
			if s.Bytes() != int64(len("hello")+len("world!")) {
				t.Fatalf("Bytes = %d", s.Bytes())
			}
			keys := s.Keys()
			if len(keys) != 2 || !keys[0].Less(keys[1]) {
				t.Fatalf("Keys = %v", keys)
			}
			if err := s.Delete(k1); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if s.Has(k1) || s.Len() != 1 {
				t.Fatal("Delete did not remove k1")
			}
			if err := s.Delete(k1); err != nil {
				t.Fatalf("Delete(absent): %v", err)
			}
		})
	}
}

func TestPutCopiesCallerBuffer(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			buf := []byte("immutable")
			k := Key{Blob: 9}
			if err := s.Put(k, buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			got, err := s.GetInto(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "immutable" {
				t.Errorf("store aliased caller buffer: %q", got)
			}
		})
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			const n = 200
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					k := Key{Blob: 1, Index: uint64(i)}
					data := []byte(fmt.Sprintf("payload-%d", i))
					if err := s.Put(k, data); err != nil {
						t.Errorf("Put %d: %v", i, err)
						return
					}
					got, err := s.GetInto(k, nil)
					if err != nil || !bytes.Equal(got, data) {
						t.Errorf("Get %d = %q, %v", i, got, err)
					}
				}(i)
			}
			wg.Wait()
			if s.Len() != n {
				t.Errorf("Len = %d, want %d", s.Len(), n)
			}
		})
	}
}

func TestDiskStoreRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key][]byte{
		{Blob: 1, Version: 1, Index: 0}: []byte("aaa"),
		{Blob: 1, Version: 2, Index: 5}: []byte("bbbb"),
		{Blob: 2, Version: 1, Index: 9}: []byte("c"),
	}
	for k, v := range want {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	re, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(want) {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), len(want))
	}
	for k, v := range want {
		got, err := re.GetInto(k, nil)
		if err != nil || !bytes.Equal(got, v) {
			t.Errorf("recovered Get(%s) = %q, %v", k, got, err)
		}
	}
	if re.Bytes() != 8 {
		t.Errorf("recovered Bytes = %d, want 8", re.Bytes())
	}
}

func TestCacheEviction(t *testing.T) {
	backing := NewMemStore()
	s := NewCachedStore(backing, 100)
	data := make([]byte, 40)
	for i := 0; i < 5; i++ {
		if err := s.Put(Key{Index: uint64(i)}, data); err != nil {
			t.Fatal(err)
		}
	}
	_, _, resident := s.CacheStats()
	if resident > 100 {
		t.Errorf("resident = %d, exceeds capacity", resident)
	}
	// Every chunk is still readable (from backing even if evicted).
	for i := 0; i < 5; i++ {
		if _, err := s.GetInto(Key{Index: uint64(i)}, nil); err != nil {
			t.Errorf("Get(%d): %v", i, err)
		}
	}
}

func TestCacheHitAccounting(t *testing.T) {
	s := NewCachedStore(NewMemStore(), 1<<20)
	k := Key{Blob: 3}
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.GetInto(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := s.CacheStats()
	if hits != 3 || misses != 0 {
		t.Errorf("hits=%d misses=%d, want 3,0", hits, misses)
	}
	if _, err := s.GetInto(Key{Blob: 99}, nil); err == nil {
		t.Error("Get absent succeeded")
	}
	_, misses2, _ := s.CacheStats()
	if misses2 != 1 {
		t.Errorf("misses = %d, want 1", misses2)
	}
}

func TestCacheRangeAdmission(t *testing.T) {
	backing := NewMemStore()
	s := NewCachedStore(backing, 1<<20)
	k := Key{Blob: 7, Index: 2}
	payload := bytes.Repeat([]byte("abcd"), 64)
	if err := backing.Put(k, payload); err != nil { // bypass cache: cold chunk
		t.Fatal(err)
	}

	// The first rangeAdmitAfter-1 misses stay ranged: nothing admitted.
	for i := 0; i < rangeAdmitAfter-1; i++ {
		got, err := s.GetRange(k, 4, 8)
		if err != nil || !bytes.Equal(got, payload[4:12]) {
			t.Fatalf("GetRange #%d = %q, %v", i, got, err)
		}
	}
	if n := s.RangeAdmits(); n != 0 {
		t.Fatalf("RangeAdmits after %d misses = %d, want 0", rangeAdmitAfter-1, n)
	}
	hits, _, _ := s.CacheStats()
	if hits != 0 {
		t.Fatalf("hits before admission = %d, want 0", hits)
	}

	// The threshold miss promotes the whole chunk into the cache.
	if got, err := s.GetRange(k, 4, 8); err != nil || !bytes.Equal(got, payload[4:12]) {
		t.Fatalf("admitting GetRange = %q, %v", got, err)
	}
	if n := s.RangeAdmits(); n != 1 {
		t.Fatalf("RangeAdmits = %d, want 1", n)
	}
	if got, err := s.GetRange(k, 100, 28); err != nil || !bytes.Equal(got, payload[100:128]) {
		t.Fatalf("post-admission GetRange = %q, %v", got, err)
	}
	if hits, _, _ := s.CacheStats(); hits != 1 {
		t.Errorf("hits after admission = %d, want 1 (served from RAM)", hits)
	}

	// Delete clears the residency and the miss counter.
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := backing.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRange(k, 0, 4); err != nil {
		t.Fatal(err)
	}
	if n := s.RangeAdmits(); n != 1 {
		t.Errorf("RangeAdmits after delete+miss = %d, want 1 (counter was reset)", n)
	}

	// Zero-capacity caches never admit.
	off := NewCachedStore(backing, 0)
	for i := 0; i < rangeAdmitAfter+2; i++ {
		if _, err := off.GetRange(k, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if n := off.RangeAdmits(); n != 0 {
		t.Errorf("zero-capacity RangeAdmits = %d, want 0", n)
	}
}

func TestCacheServesAfterBackingDelete(t *testing.T) {
	// Documents the read-your-cache semantics: immutability makes stale
	// reads impossible, deletes purge the cache explicitly.
	s := NewCachedStore(NewMemStore(), 1<<20)
	k := Key{Blob: 1}
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetInto(k, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete = %v, want ErrNotFound", err)
	}
}

func TestParseChunkName(t *testing.T) {
	cases := []struct {
		name string
		want Key
		ok   bool
	}{
		{"1-2-3.chunk", Key{1, 2, 3}, true},
		{"10-0-999.chunk", Key{10, 0, 999}, true},
		{"put-12345", Key{}, false},
		{"1-2.chunk", Key{}, false},
		{"x-y-z.chunk", Key{}, false},
	}
	for _, c := range cases {
		got, ok := parseChunkName(c.name)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseChunkName(%q) = %v,%v want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// property: Put/Get roundtrip over random keys and payloads; Keys() sorted.
func TestQuickMemStore(t *testing.T) {
	f := func(blobs []uint64, payload []byte) bool {
		s := NewMemStore()
		seen := map[Key]bool{}
		for i, b := range blobs {
			k := Key{Blob: b % 4, Version: uint64(i % 3), Index: uint64(i)}
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := s.Put(k, payload); err != nil {
				return false
			}
		}
		keys := s.Keys()
		if len(keys) != len(seen) {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMemStorePut64K(b *testing.B) {
	s := NewMemStore()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(Key{Index: uint64(i)}, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachedGetHit(b *testing.B) {
	s := NewCachedStore(NewMemStore(), 1<<26)
	data := make([]byte, 64<<10)
	k := Key{Blob: 1}
	if err := s.Put(k, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetInto(k, nil); err != nil {
			b.Fatal(err)
		}
	}
}
