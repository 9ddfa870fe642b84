package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// TestDiskStoreRemovesCrashDebris: the temp file of a Put a crash cut
// short is removed when the directory is opened again, and the published
// chunks beside it stay.
func TestDiskStoreRemovesCrashDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Blob: 1, Version: 1, Index: 0}
	if err := s.Put(k, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	debris := filepath.Join(dir, "put-12345")
	if err := os.WriteFile(debris, []byte("half a chunk"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crash debris after open: %v, want it removed", err)
	}
	if got, err := re.GetInto(k, nil); err != nil || string(got) != "kept" || re.Len() != 1 {
		t.Fatalf("chunk beside the debris: %q, %v, Len %d", got, err, re.Len())
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
