package meta

import (
	"context"

	"repro/internal/chunk"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Method names served by a metadata provider.
const (
	MethodPutNodes      = "meta.put"
	MethodGetNodes      = "meta.getnodes"
	MethodDeleteNodes   = "meta.delete"
	MethodDeleteBlob    = "meta.deleteblob"
	MethodPatchReplicas = "meta.patchreplicas"
)

// PutNodesReq carries a batch of tree nodes to store.
type PutNodesReq struct {
	Nodes []*Node
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *PutNodesReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PutNodesReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PutNodesReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Nodes, wire.MaxCount, func(n **Node, c *wire.Codec) {
		if *n == nil {
			*n = &Node{}
		}
		(*n).Wire(c)
	})
}

// GetNodesReq asks for a batch of nodes in one round trip. This is the
// hot-path read RPC: the level-order descent groups a whole frontier of
// tree-node keys per provider and fetches them together, so a read costs
// O(providers × tree depth) round trips instead of one per node.
type GetNodesReq struct {
	Keys []NodeKey
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *GetNodesReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GetNodesReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GetNodesReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Keys, wire.MaxCount, (*NodeKey).Wire)
}

// GetNodesResp returns the nodes aligned with the request keys; a nil
// entry marks a key this provider does not hold (the descent probes keys
// speculatively, so absences are ordinary, not errors).
type GetNodesResp struct {
	Nodes []*Node
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *GetNodesResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GetNodesResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GetNodesResp) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Nodes, wire.MaxCount, func(n **Node, c *wire.Codec) {
		found := *n != nil
		c.Bool(&found)
		if found {
			if *n == nil {
				*n = &Node{}
			}
			(*n).Wire(c)
		}
	})
}

// DeleteNodesReq names tree nodes to drop (garbage collection of pruned
// versions). Deletes are idempotent; unknown keys are ignored.
type DeleteNodesReq struct {
	Keys []NodeKey
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *DeleteNodesReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *DeleteNodesReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *DeleteNodesReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Keys, wire.MaxCount, (*NodeKey).Wire)
}

// ReplicaPatch rewrites the replica list of one leaf's chunk descriptor.
// This is the ONE deliberate exception to node immutability: a leaf's
// chunk identity (key, length) is immutable content, but its provider
// list is placement state, and placement changes when the repair engine
// re-replicates a chunk off a dead provider or migrates one off an
// overfull provider. Chunk identifies the chunk the patch is about —
// a patch applies only when the stored leaf still references that exact
// chunk, so a stale patch can never clobber an unrelated descriptor.
type ReplicaPatch struct {
	Key       NodeKey
	Chunk     chunk.Key
	Providers []string
}

func (p *ReplicaPatch) wire(c *wire.Codec) {
	p.Key.Wire(c)
	p.Chunk.Wire(c)
	c.Strings(&p.Providers, MaxReplicas)
}

// PatchReplicasReq carries a batch of leaf replica-list rewrites (the
// repair engine patches every affected leaf of a pass in few RPCs).
// Patches are idempotent and patches for absent keys are ignored:
// metadata replicas may hold different subsets, and the GC may race the
// repair pass.
type PatchReplicasReq struct {
	Patches []ReplicaPatch
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *PatchReplicasReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PatchReplicasReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PatchReplicasReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Patches, wire.MaxCount, (*ReplicaPatch).wire)
}

// PatchResp reports how many leaves a patch rewrote on this provider.
type PatchResp struct {
	Patched uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *PatchResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PatchResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PatchResp) Wire(c *wire.Codec)     { c.U64(&r.Patched) }

// DeleteBlobReq drops every node of one blob (full blob deletion).
type DeleteBlobReq struct {
	Blob uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *DeleteBlobReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *DeleteBlobReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *DeleteBlobReq) Wire(c *wire.Codec)     { c.U64(&r.Blob) }

// DeleteResp reports how many nodes a delete dropped on this provider.
type DeleteResp struct {
	Deleted uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *DeleteResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *DeleteResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *DeleteResp) Wire(c *wire.Codec)     { c.U64(&r.Deleted) }

// Ack is the empty acknowledgment payload.
type Ack struct{}

// Encode and Decode implement wire.Message: the body is empty.
func (a *Ack) Encode(e *wire.Encoder) {}
func (a *Ack) Decode(d *wire.Decoder) {}

// ServerStore is the storage engine behind one metadata provider: node
// CRUD plus inventory. MemStore (volatile) and PersistentStore (durable,
// restart-surviving) both implement it.
type ServerStore interface {
	Store
	PutNodes(nodes []*Node) error
	Len() int
	DeleteNodes(keys []NodeKey) int
	DeleteBlob(blob uint64) int
	// PatchReplicas rewrites leaf replica lists in place (the repair
	// engine's placement updates; see ReplicaPatch). Returns how many
	// leaves were actually rewritten; absent keys, non-leaves, and leaves
	// whose chunk no longer matches are skipped.
	PatchReplicas(patches []ReplicaPatch) int
}

// Server is one metadata provider: a DHT member storing tree nodes.
type Server struct {
	addr  string
	store ServerStore
	srv   *rpc.Server
}

// NewServer creates a metadata provider listening at addr on network over
// a storage engine: a MemStore for a volatile provider, a PersistentStore
// for deployments that must survive restarts, or a recovered engine when
// restarting a provider in place.
func NewServer(network rpc.Network, addr string, store ServerStore) *Server {
	s := &Server{addr: addr, store: store, srv: rpc.NewServer(network, addr)}
	rpc.HandleMsg(s.srv, MethodPutNodes, func() *PutNodesReq { return &PutNodesReq{} },
		func(req *PutNodesReq) (*Ack, error) {
			if err := s.store.PutNodes(req.Nodes); err != nil {
				return nil, err
			}
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodGetNodes, func() *GetNodesReq { return &GetNodesReq{} },
		func(req *GetNodesReq) (*GetNodesResp, error) {
			nodes, err := s.store.GetNodes(context.TODO(), req.Keys)
			if err != nil {
				return nil, err
			}
			return &GetNodesResp{Nodes: nodes}, nil
		})
	rpc.HandleMsg(s.srv, MethodDeleteNodes, func() *DeleteNodesReq { return &DeleteNodesReq{} },
		func(req *DeleteNodesReq) (*DeleteResp, error) {
			return &DeleteResp{Deleted: uint64(s.store.DeleteNodes(req.Keys))}, nil
		})
	rpc.HandleMsg(s.srv, MethodDeleteBlob, func() *DeleteBlobReq { return &DeleteBlobReq{} },
		func(req *DeleteBlobReq) (*DeleteResp, error) {
			return &DeleteResp{Deleted: uint64(s.store.DeleteBlob(req.Blob))}, nil
		})
	rpc.HandleMsg(s.srv, MethodPatchReplicas, func() *PatchReplicasReq { return &PatchReplicasReq{} },
		func(req *PatchReplicasReq) (*PatchResp, error) {
			return &PatchResp{Patched: uint64(s.store.PatchReplicas(req.Patches))}, nil
		})
	return s
}

// Start begins serving.
func (s *Server) Start() error { return s.srv.Start() }

// Close stops serving.
func (s *Server) Close() { s.srv.Close() }

// Addr returns the provider's address.
func (s *Server) Addr() string { return s.srv.Addr() }

// NodeCount reports the number of nodes stored locally.
func (s *Server) NodeCount() int { return s.store.Len() }

// Store exposes the underlying engine (graceful shutdown, tests).
func (s *Server) Store() ServerStore { return s.store }

// SetRPCObserver attaches an observer to the metadata provider's RPC
// server (per-method latency/bytes/error metrics).
func (s *Server) SetRPCObserver(o rpc.ServerObserver) { s.srv.SetObserver(o) }

// SetRPCTracer attaches a tracer to the RPC server: every inbound
// sampled request records a server span under the caller's trace.
func (s *Server) SetRPCTracer(t *trace.Tracer) { s.srv.SetTracer(t) }
