package chunk

import (
	"bytes"
	"testing"
)

func TestGetRangeSemantics(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	k := Key{Blob: 1, Version: 2, Index: 3}
	cases := []struct {
		name        string
		off, length uint64
		want        []byte
	}{
		{"whole", 0, 0, data},
		{"prefix", 0, 10, data[:10]},
		{"interior", 100, 50, data[100:150]},
		{"to-end", 990, 0, data[990:]},
		{"clipped-tail", 990, 100, data[990:]},
		{"past-end", 1000, 10, nil},
		{"far-past-end", 5000, 1, nil},
		// off+length overflows uint64: must clamp to the end, not wrap
		// below off (a malformed wire request would otherwise panic the
		// provider).
		{"overflow", 1, ^uint64(0), data[1:]},
		{"overflow-max-off", ^uint64(0), ^uint64(0), nil},
	}
	for name, mk := range storeFactories(t) {
		s := mk()
		defer s.Close()
		if err := s.Put(k, data); err != nil {
			t.Fatalf("%s: put: %v", name, err)
		}
		for _, c := range cases {
			got, err := s.GetRange(k, c.off, c.length)
			if err != nil {
				t.Errorf("%s/%s: %v", name, c.name, err)
				continue
			}
			if !bytes.Equal(got, c.want) {
				t.Errorf("%s/%s: got %d bytes, want %d", name, c.name, len(got), len(c.want))
			}
		}
		if _, err := s.GetRange(Key{Blob: 9}, 0, 1); err == nil {
			t.Errorf("%s: ranged read of absent chunk succeeded", name)
		}
	}
}
