package wire

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Buffer pool for the data path, below both of its users. A provider
// serving a chunk reads its pack record into one of these buffers,
// checks the digest over it and sends the reply from it (the frame
// references it; the rpc server hands it back once sent). The rpc
// transports receive every frame of at least 4 KiB into one; a client
// reading a chunk into a buffer of its own gets the payload read there
// instead, or, where it cannot be (SimNetwork, a reply that does not
// fit), copies it once out of the frame and hands the frame back.
// Without the pool each of those is a fresh, zeroed large object that
// the garbage collector sweeps a moment later.
//
// Size classes are a power of two from 4 KiB up to 1 MiB, the rpc layer's
// pooled-frame ceiling, plus frameSlack bytes, so a class-sized payload
// still fits its class once a frame header is wrapped around it (a 64 KiB
// chunk reply is 64 KiB + 24 bytes). Smaller and larger requests allocate
// exactly what they ask for. A buffer nobody hands back is an ordinary
// allocation, left to the garbage collector.
const (
	minBufShift = 12
	maxBufShift = 20

	// frameSlack is the headroom every size class keeps above its power
	// of two for the frame header around a payload.
	frameSlack = 512
)

// bufPools holds one pool per size class. Each item is the base pointer
// of a buffer whose capacity is exactly its class size; storing the
// pointer rather than a slice keeps Put free of a slice-header allocation.
var bufPools [maxBufShift - minBufShift + 1]sync.Pool

// classSize returns the capacity of size class c.
func classSize(c int) int { return 1<<(c+minBufShift) + frameSlack }

// bufClass returns the smallest size class holding n bytes, or -1 when n
// is below the smallest power of two or above the largest class.
func bufClass(n int) int {
	if n < 1<<minBufShift || n > classSize(len(bufPools)-1) {
		return -1
	}
	if n <= classSize(0) {
		return 0
	}
	return bits.Len(uint(n-frameSlack-1)) - minBufShift
}

// GetBuf returns a buffer of length n, from the pool when n fits a size
// class. Its contents are unspecified. Hand it back with PutBuf once
// nothing refers to it any more.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if p, ok := bufPools[c].Get().(unsafe.Pointer); ok {
		return unsafe.Slice((*byte)(p), classSize(c))[:n]
	}
	return make([]byte, n, classSize(c))
}

// PutBuf returns b to the pool. The caller must not use b, or any slice
// of it, afterwards. A buffer whose capacity is not a class size (nil,
// out of range, or not from GetBuf) is left to the garbage collector.
func PutBuf(b []byte) {
	c := bufClass(cap(b))
	if c < 0 || cap(b) != classSize(c) {
		return
	}
	bufPools[c].Put(unsafe.Pointer(unsafe.SliceData(b)))
}
