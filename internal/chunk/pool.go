package chunk

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Read-buffer pool. A provider serving a chunk reads the file into one of
// these buffers, checks the digest over it, copies it once into the
// response frame and hands it back; without the pool every chunk read is
// a fresh, zeroed large object that the garbage collector sweeps a moment
// later. Buffers come in power-of-two size classes from 1 KiB up to
// 1 MiB, the rpc layer's pooled-frame ceiling; larger reads allocate.
const (
	minBufShift = 10
	maxBufShift = 20
)

// bufPools holds one pool per size class. Each item is the base pointer
// of a buffer whose capacity is exactly its class size; storing the
// pointer rather than a slice keeps Put free of a slice-header allocation.
var bufPools [maxBufShift - minBufShift + 1]sync.Pool

// bufClass returns the smallest size class holding n bytes, or -1 when n
// is above the largest class.
func bufClass(n int) int {
	if n > 1<<maxBufShift {
		return -1
	}
	if n <= 1<<minBufShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// GetBuf returns a buffer of length n, from the pool when n fits a size
// class. Its contents are unspecified. Hand it back with PutBuf once
// nothing refers to it any more.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	size := 1 << (c + minBufShift)
	if p, ok := bufPools[c].Get().(unsafe.Pointer); ok {
		return unsafe.Slice((*byte)(p), size)[:n]
	}
	return make([]byte, n, size)
}

// PutBuf returns b to the pool. The caller must not use b, or any slice
// of it, afterwards. A buffer whose capacity is not a size class (nil,
// oversized, or not from GetBuf) is left to the garbage collector.
func PutBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufShift || c > 1<<maxBufShift || c&(c-1) != 0 {
		return
	}
	bufPools[bufClass(c)].Put(unsafe.Pointer(unsafe.SliceData(b)))
}
