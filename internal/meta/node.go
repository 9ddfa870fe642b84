// Package meta implements BlobSeer's versioning-oriented distributed
// segment tree (§I-B3 "Metadata decentralization").
//
// The chunk index space of a blob is covered by a binary tree. Every node
// spans a power-of-two range [Off, Off+Size) of chunk indices (Size == 1
// for leaves). A node is immutable and globally identified by
// (Blob, Version, Off, Size): once a writer stores it, nothing ever
// modifies it, which is what lets readers proceed with no synchronization
// and lets clients cache nodes forever.
//
// Inner nodes carry only the *version labels* of their two children; the
// child's (Off, Size) is implied by the parent's. Leaves carry the chunk
// descriptor: the replica locations of one chunk. A subtree that has never
// been written is referenced with the reserved ZeroVersion label and is
// synthesized as zeros by readers, which gives sparse writes past the end
// of a blob for free.
package meta

import (
	"context"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/dht"
	"repro/internal/wire"
)

// ZeroVersion is the reserved child-version label denoting an all-zeros
// subtree (never-written chunk range).
const ZeroVersion = ^uint64(0)

// NodeKey identifies one immutable tree node.
type NodeKey struct {
	Blob    uint64
	Version uint64
	Off     uint64 // in chunk units
	Size    uint64 // in chunk units; power of two; 1 for leaves
}

// Hash maps the key onto the metadata DHT ring.
func (k NodeKey) Hash() uint64 {
	return dht.HashKey(k.Blob, k.Version, k.Off, k.Size)
}

// Wire codes the key in every message that carries one.
func (k *NodeKey) Wire(c *wire.Codec) {
	c.U64(&k.Blob)
	c.U64(&k.Version)
	c.U64(&k.Off)
	c.U64(&k.Size)
}

// String renders the key for diagnostics.
func (k NodeKey) String() string {
	return fmt.Sprintf("blob%d/v%d/[%d,%d)", k.Blob, k.Version, k.Off, k.Off+k.Size)
}

// ChunkRef locates the replicas of one stored chunk.
type ChunkRef struct {
	// Providers lists the data-provider addresses holding a replica.
	// An empty list denotes a zero (never written) chunk.
	Providers []string
	// Key is the chunk's identity in the providers' stores.
	Key chunk.Key
	// Length is the number of valid bytes in the chunk. The final chunk
	// of a blob may be shorter than the blob's chunk size.
	Length uint32
}

// IsZero reports whether the reference denotes an all-zeros chunk.
func (c ChunkRef) IsZero() bool { return len(c.Providers) == 0 }

// MaxReplicas caps a chunk's replica count. The leaf and replica-patch
// decoders fail on a larger count, and the version manager refuses to
// create a blob replicated wider, so no valid placement ever exceeds it.
const MaxReplicas = 64

// Node is one tree node: an inner node (child version labels) or a leaf
// (chunk descriptor).
type Node struct {
	Key  NodeKey
	Leaf bool
	// Inner node: version labels of the children. The left child covers
	// [Off, Off+Size/2), the right [Off+Size/2, Off+Size). ZeroVersion
	// denotes an all-zeros subtree.
	LeftVer  uint64
	RightVer uint64
	// Leaf: the chunk descriptor.
	Chunk ChunkRef
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (n *Node) Encode(e *wire.Encoder) { n.Wire(e.Codec()) }
func (n *Node) Decode(d *wire.Decoder) { n.Wire(d.Codec()) }
func (n *Node) Wire(c *wire.Codec) {
	n.Key.Wire(c)
	c.Bool(&n.Leaf)
	if n.Leaf {
		c.Strings(&n.Chunk.Providers, MaxReplicas)
		n.Chunk.Key.Wire(c)
		c.U32(&n.Chunk.Length)
	} else {
		c.U64(&n.LeftVer)
		c.U64(&n.RightVer)
	}
}

// NextPow2 returns the smallest power of two >= x (and >= 1).
func NextPow2(x uint64) uint64 {
	p := uint64(1)
	for p < x {
		p <<= 1
	}
	return p
}

// WriteDesc summarizes one assigned write for concurrent metadata weaving:
// which chunk range version Version covered and how many chunks the blob
// had after it. The version manager hands the in-flight descriptors to
// each writer at assign time so no writer ever waits for another writer's
// metadata (§I-B3 "write/write concurrency").
type WriteDesc struct {
	Version    uint64
	StartChunk uint64
	EndChunk   uint64 // exclusive
	SizeChunks uint64 // blob size in chunks after this write
	SizeBytes  uint64 // blob size in bytes after this write
}

// RootSize returns the tree shape (root span) of the version described.
func (w WriteDesc) RootSize() uint64 { return NextPow2(w.SizeChunks) }

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (w *WriteDesc) Encode(e *wire.Encoder) { w.Wire(e.Codec()) }
func (w *WriteDesc) Decode(d *wire.Decoder) { w.Wire(d.Codec()) }
func (w *WriteDesc) Wire(c *wire.Codec) {
	c.U64(&w.Version)
	c.U64(&w.StartChunk)
	c.U64(&w.EndChunk)
	c.U64(&w.SizeChunks)
	c.U64(&w.SizeBytes)
}

// Store abstracts where the descent, weave and liveness walks read tree
// nodes from: the real DHT-backed client or an in-memory map in tests.
// ctx is the walk's operation context; the DHT client attributes every
// fetch RPC to its trace.
type Store interface {
	// GetNode fetches one node by key.
	GetNode(ctx context.Context, key NodeKey) (*Node, error)
	// GetNodes fetches a batch of nodes in one operation. The result is
	// aligned with keys; a nil entry means the key was not retrieved —
	// absent from every replica that responded, or temporarily
	// unreachable. GetNodes is the hot-path bulk read: it must not fail
	// the whole batch because individual keys are missing (the batched
	// descent probes keys speculatively), so callers that need the
	// definitive absent-vs-unreachable distinction for a specific key
	// follow up with GetNode, which consults the full ring before
	// declaring absence.
	GetNodes(ctx context.Context, keys []NodeKey) ([]*Node, error)
}

// ErrNodeNotFound is returned when a tree node is missing from the store.
var ErrNodeNotFound = fmt.Errorf("meta: node not found")
