package meta

import (
	"context"
	"strings"

	"repro/internal/wire"
)

// IdentityInput describes an aborted (or abandoned) version whose metadata
// tree must be woven as an *identity* over the previous content: every
// leaf in the write range points at the newest live predecessor's chunk
// (or zeros where the failed write grew the blob), and untouched ranges
// resolve through that predecessor's tree.
//
// Precondition: every version below Version has FINISHED (committed or
// aborted). The identity weave then needs no in-flight descriptors — the
// newest non-failed finished version below Version is both the leaf source
// and the published snapshot to resolve untouched ranges through. That is
// exactly the situation of every caller: the failing writer waits for its
// predecessor to publish before repairing, and the version manager's lease
// expiry and the GC sweep only weave versions at or behind the publish
// frontier.
type IdentityInput struct {
	Blob    uint64
	Version uint64
	// [StartChunk, EndChunk) is the chunk range the dead write covered.
	StartChunk uint64
	EndChunk   uint64
	// SizeChunks is the blob size in chunks the version was assigned.
	SizeChunks uint64
	// SrcVersion is the newest NON-FAILED finished version below Version
	// (0 when every predecessor failed or none exists: all-zero leaves are
	// then the true content). SrcSizeChunks is its tree shape.
	SrcVersion    uint64
	SrcSizeChunks uint64
}

// Encode implements wire.Message (the version manager ships these to GC
// sweepers as treeless-abort repair work).
func (in *IdentityInput) Encode(e *wire.Encoder) {
	e.PutU64(in.Blob)
	e.PutU64(in.Version)
	e.PutU64(in.StartChunk)
	e.PutU64(in.EndChunk)
	e.PutU64(in.SizeChunks)
	e.PutU64(in.SrcVersion)
	e.PutU64(in.SrcSizeChunks)
}

// Decode implements wire.Message.
func (in *IdentityInput) Decode(d *wire.Decoder) {
	in.Blob = d.U64()
	in.Version = d.U64()
	in.StartChunk = d.U64()
	in.EndChunk = d.U64()
	in.SizeChunks = d.U64()
	in.SrcVersion = d.U64()
	in.SrcSizeChunks = d.U64()
}

// WeaveIdentity builds and stores the identity tree for a dead version
// through the DHT client, under the repair's operation context:
// leaves copied from the source snapshot, untouched ranges referenced
// through it, everything beyond it zero. Later writers hold the dead
// version's in-flight descriptor and reference its nodes for subtrees that
// intersect its write range; the weave emits exactly that node set (node
// KEYS depend only on the write range and tree shape, never on who the
// content came from), so after it lands no later merge or read trips over
// a treeless hole. Idempotent: re-weaving produces byte-identical nodes.
//
// Referencing only the newest non-failed version — rather than the
// original assign-time in-flight set — is deliberate: an in-flight
// neighbor may itself have aborted treeless, and a reference into it would
// dangle. Failed versions contributed no content, so the newest live
// predecessor IS the content as of Version-1.
func WeaveIdentity(ctx context.Context, c *Client, in IdentityInput) error {
	leaves := make([]ChunkRef, in.EndChunk-in.StartChunk)
	if in.SrcVersion > 0 {
		lo, hi := in.StartChunk, in.EndChunk
		if in.SrcSizeChunks < hi {
			hi = in.SrcSizeChunks
		}
		if hi > lo {
			prior, err := CollectLeavesCtx(ctx, c, in.Blob, in.SrcVersion, in.SrcSizeChunks, lo, hi)
			if err != nil {
				return err
			}
			copy(leaves, prior)
		}
	}
	nodes, _, err := WeaveCtx(ctx, c, WeaveInput{
		Blob:          in.Blob,
		Version:       in.Version,
		StartChunk:    in.StartChunk,
		EndChunk:      in.EndChunk,
		SizeChunks:    in.SizeChunks,
		Leaves:        leaves,
		PubVersion:    in.SrcVersion,
		PubSizeChunks: in.SrcSizeChunks,
	})
	if err != nil {
		return err
	}
	return putIdentityNodes(ctx, c, nodes)
}

// putIdentityNodes stores the identity node set, tolerating keys the dead
// writer managed to weave before vanishing: a writer that died between its
// weave and its commit (or mid-weave) left real immutable nodes at some of
// these keys, and the store rejects conflicting rewrites. Those nodes are
// complete subtrees over content that exists on the providers, so the key
// needs no identity fill — skip it and keep filling the missing ones. The
// batch put is tried first (the common case: the writer never wove at all,
// or the weave is a byte-identical re-run).
func putIdentityNodes(ctx context.Context, c *Client, nodes []*Node) error {
	err := c.PutNodesCtx(ctx, nodes)
	if err == nil || !isNodeConflict(err) {
		return err
	}
	for _, n := range nodes {
		if err := c.PutNodesCtx(ctx, []*Node{n}); err != nil && !isNodeConflict(err) {
			return err
		}
	}
	return nil
}

// isNodeConflict matches the store's conflicting-rewrite refusal. Matched
// by text because the error crosses the RPC boundary as a string (the same
// idiom the write path uses for typed version-manager errors).
func isNodeConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), "conflicting rewrite")
}
