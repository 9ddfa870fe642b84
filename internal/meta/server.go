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
	MethodGetNode       = "meta.get"
	MethodGetNodes      = "meta.getnodes"
	MethodStats         = "meta.stats"
	MethodDeleteNodes   = "meta.delete"
	MethodDeleteBlob    = "meta.deleteblob"
	MethodPatchReplicas = "meta.patchreplicas"
)

// PutNodesReq carries a batch of tree nodes to store.
type PutNodesReq struct {
	Nodes []*Node
}

// Encode implements wire.Message.
func (r *PutNodesReq) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Nodes)))
	for _, n := range r.Nodes {
		n.Encode(e)
	}
}

// Decode implements wire.Message.
func (r *PutNodesReq) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.Nodes = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		n := &Node{}
		n.Decode(d)
		r.Nodes = append(r.Nodes, n)
	}
}

// GetNodeReq asks for one node by key.
type GetNodeReq struct {
	Key NodeKey
}

// Encode implements wire.Message.
func (r *GetNodeReq) Encode(e *wire.Encoder) {
	e.PutU64(r.Key.Blob)
	e.PutU64(r.Key.Version)
	e.PutU64(r.Key.Off)
	e.PutU64(r.Key.Size)
}

// Decode implements wire.Message.
func (r *GetNodeReq) Decode(d *wire.Decoder) {
	r.Key.Blob = d.U64()
	r.Key.Version = d.U64()
	r.Key.Off = d.U64()
	r.Key.Size = d.U64()
}

// GetNodeResp returns the node when found.
type GetNodeResp struct {
	Found bool
	Node  Node
}

// Encode implements wire.Message.
func (r *GetNodeResp) Encode(e *wire.Encoder) {
	e.PutBool(r.Found)
	if r.Found {
		r.Node.Encode(e)
	}
}

// Decode implements wire.Message.
func (r *GetNodeResp) Decode(d *wire.Decoder) {
	r.Found = d.Bool()
	if r.Found {
		r.Node.Decode(d)
	}
}

// GetNodesReq asks for a batch of nodes in one round trip. This is the
// hot-path read RPC: the level-order descent groups a whole frontier of
// tree-node keys per provider and fetches them together, so a read costs
// O(providers × tree depth) round trips instead of one per node.
type GetNodesReq struct {
	Keys []NodeKey
}

// Encode implements wire.Message.
func (r *GetNodesReq) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Keys)))
	for _, k := range r.Keys {
		e.PutU64(k.Blob)
		e.PutU64(k.Version)
		e.PutU64(k.Off)
		e.PutU64(k.Size)
	}
}

// Decode implements wire.Message.
func (r *GetNodesReq) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.Keys = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var k NodeKey
		k.Blob = d.U64()
		k.Version = d.U64()
		k.Off = d.U64()
		k.Size = d.U64()
		r.Keys = append(r.Keys, k)
	}
}

// GetNodesResp returns the nodes aligned with the request keys; a nil
// entry marks a key this provider does not hold (the descent probes keys
// speculatively, so absences are ordinary, not errors).
type GetNodesResp struct {
	Nodes []*Node
}

// Encode implements wire.Message.
func (r *GetNodesResp) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Nodes)))
	for _, n := range r.Nodes {
		e.PutBool(n != nil)
		if n != nil {
			n.Encode(e)
		}
	}
}

// Decode implements wire.Message.
func (r *GetNodesResp) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.Nodes = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		if !d.Bool() {
			r.Nodes = append(r.Nodes, nil)
			continue
		}
		n := &Node{}
		n.Decode(d)
		r.Nodes = append(r.Nodes, n)
	}
}

// DeleteNodesReq names tree nodes to drop (garbage collection of pruned
// versions). Deletes are idempotent; unknown keys are ignored.
type DeleteNodesReq struct {
	Keys []NodeKey
}

// Encode implements wire.Message.
func (r *DeleteNodesReq) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Keys)))
	for _, k := range r.Keys {
		e.PutU64(k.Blob)
		e.PutU64(k.Version)
		e.PutU64(k.Off)
		e.PutU64(k.Size)
	}
}

// Decode implements wire.Message.
func (r *DeleteNodesReq) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.Keys = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var k NodeKey
		k.Blob = d.U64()
		k.Version = d.U64()
		k.Off = d.U64()
		k.Size = d.U64()
		r.Keys = append(r.Keys, k)
	}
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

func (p *ReplicaPatch) encode(e *wire.Encoder) {
	e.PutU64(p.Key.Blob)
	e.PutU64(p.Key.Version)
	e.PutU64(p.Key.Off)
	e.PutU64(p.Key.Size)
	e.PutU64(p.Chunk.Blob)
	e.PutU64(p.Chunk.Version)
	e.PutU64(p.Chunk.Index)
	e.PutU32(uint32(len(p.Providers)))
	for _, a := range p.Providers {
		e.PutString(a)
	}
}

func (p *ReplicaPatch) decode(d *wire.Decoder) {
	p.Key.Blob = d.U64()
	p.Key.Version = d.U64()
	p.Key.Off = d.U64()
	p.Key.Size = d.U64()
	p.Chunk.Blob = d.U64()
	p.Chunk.Version = d.U64()
	p.Chunk.Index = d.U64()
	cnt := d.Count(MaxReplicas)
	p.Providers = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		p.Providers = append(p.Providers, d.String())
	}
}

// PatchReplicasReq carries a batch of leaf replica-list rewrites (the
// repair engine patches every affected leaf of a pass in few RPCs).
// Patches are idempotent and patches for absent keys are ignored:
// metadata replicas may hold different subsets, and the GC may race the
// repair pass.
type PatchReplicasReq struct {
	Patches []ReplicaPatch
}

// Encode implements wire.Message.
func (r *PatchReplicasReq) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Patches)))
	for i := range r.Patches {
		r.Patches[i].encode(e)
	}
}

// Decode implements wire.Message.
func (r *PatchReplicasReq) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.Patches = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var p ReplicaPatch
		p.decode(d)
		r.Patches = append(r.Patches, p)
	}
}

// PatchResp reports how many leaves a patch rewrote on this provider.
type PatchResp struct {
	Patched uint64
}

// Encode implements wire.Message.
func (r *PatchResp) Encode(e *wire.Encoder) { e.PutU64(r.Patched) }

// Decode implements wire.Message.
func (r *PatchResp) Decode(d *wire.Decoder) { r.Patched = d.U64() }

// DeleteBlobReq drops every node of one blob (full blob deletion).
type DeleteBlobReq struct {
	Blob uint64
}

// Encode implements wire.Message.
func (r *DeleteBlobReq) Encode(e *wire.Encoder) { e.PutU64(r.Blob) }

// Decode implements wire.Message.
func (r *DeleteBlobReq) Decode(d *wire.Decoder) { r.Blob = d.U64() }

// DeleteResp reports how many nodes a delete dropped on this provider.
type DeleteResp struct {
	Deleted uint64
}

// Encode implements wire.Message.
func (r *DeleteResp) Encode(e *wire.Encoder) { e.PutU64(r.Deleted) }

// Decode implements wire.Message.
func (r *DeleteResp) Decode(d *wire.Decoder) { r.Deleted = d.U64() }

// Ack is the empty acknowledgment payload.
type Ack struct{}

// Encode implements wire.Message.
func (a *Ack) Encode(e *wire.Encoder) {}

// Decode implements wire.Message.
func (a *Ack) Decode(d *wire.Decoder) {}

// StatsResp reports a metadata provider's node inventory.
type StatsResp struct {
	Nodes uint64
}

// Encode implements wire.Message.
func (r *StatsResp) Encode(e *wire.Encoder) { e.PutU64(r.Nodes) }

// Decode implements wire.Message.
func (r *StatsResp) Decode(d *wire.Decoder) { r.Nodes = d.U64() }

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

// NewServer creates a volatile metadata provider listening at addr on
// network.
func NewServer(network rpc.Network, addr string) *Server {
	return NewServerWithStore(network, addr, NewMemStore())
}

// NewServerWithStore creates a metadata provider over an existing storage
// engine — a PersistentStore for deployments that must survive restarts,
// or a recovered engine when restarting a provider in place.
func NewServerWithStore(network rpc.Network, addr string, store ServerStore) *Server {
	s := &Server{addr: addr, store: store, srv: rpc.NewServer(network, addr)}
	rpc.HandleMsg(s.srv, MethodPutNodes, func() *PutNodesReq { return &PutNodesReq{} },
		func(req *PutNodesReq) (*Ack, error) {
			if err := s.store.PutNodes(req.Nodes); err != nil {
				return nil, err
			}
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodGetNode, func() *GetNodeReq { return &GetNodeReq{} },
		func(req *GetNodeReq) (*GetNodeResp, error) {
			n, err := s.store.GetNode(context.TODO(), req.Key)
			if err != nil {
				return &GetNodeResp{Found: false}, nil
			}
			return &GetNodeResp{Found: true, Node: *n}, nil
		})
	rpc.HandleMsg(s.srv, MethodGetNodes, func() *GetNodesReq { return &GetNodesReq{} },
		func(req *GetNodesReq) (*GetNodesResp, error) {
			nodes, err := s.store.GetNodes(context.TODO(), req.Keys)
			if err != nil {
				return nil, err
			}
			return &GetNodesResp{Nodes: nodes}, nil
		})
	rpc.HandleMsg(s.srv, MethodStats, func() *Ack { return &Ack{} },
		func(*Ack) (*StatsResp, error) {
			return &StatsResp{Nodes: uint64(s.store.Len())}, nil
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
