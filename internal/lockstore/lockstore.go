// Package lockstore implements the baseline BlobSeer is contrasted with in
// §IV-A: a conventional shared-object store where concurrent access to one
// huge byte string is coordinated by locking the string. Data is striped
// over the same data providers BlobSeer uses — so the comparison isolates
// the concurrency-control discipline, not data distribution — but there is
// a single mutable flat chunk map guarded by a reader/writer lock, and no
// versioning: writers exclude readers and readers exclude writers.
//
// In the paper's supernovae-detection experiment BlobSeer's read
// throughput stays flat as writers are added while this baseline
// collapses; the package's tests pin the locking discipline that
// explains the difference.
package lockstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Method names served by the lock server.
const (
	MethodCreate  = "ls.create"
	MethodAcquire = "ls.acquire"
	MethodRelease = "ls.release"
	MethodGetMap  = "ls.getmap"
	MethodSetMap  = "ls.setmap"
)

// ErrNoSuchObject is returned for unknown object IDs.
var ErrNoSuchObject = errors.New("lockstore: no such object")

// CreateReq registers a flat object.
type CreateReq struct {
	ChunkSize uint64
}

// Encode implements wire.Message.
func (r *CreateReq) Encode(e *wire.Encoder) { e.PutU64(r.ChunkSize) }

// Decode implements wire.Message.
func (r *CreateReq) Decode(d *wire.Decoder) { r.ChunkSize = d.U64() }

// CreateResp returns the object ID.
type CreateResp struct {
	ID uint64
}

// Encode implements wire.Message.
func (r *CreateResp) Encode(e *wire.Encoder) { e.PutU64(r.ID) }

// Decode implements wire.Message.
func (r *CreateResp) Decode(d *wire.Decoder) { r.ID = d.U64() }

// LockReq acquires or releases the object lock.
type LockReq struct {
	ID    uint64
	Write bool
}

// Encode implements wire.Message.
func (r *LockReq) Encode(e *wire.Encoder) {
	e.PutU64(r.ID)
	e.PutBool(r.Write)
}

// Decode implements wire.Message.
func (r *LockReq) Decode(d *wire.Decoder) {
	r.ID = d.U64()
	r.Write = d.Bool()
}

// MapReq reads the chunk map for a chunk range.
type MapReq struct {
	ID         uint64
	StartChunk uint64
	EndChunk   uint64
}

// Encode implements wire.Message.
func (r *MapReq) Encode(e *wire.Encoder) {
	e.PutU64(r.ID)
	e.PutU64(r.StartChunk)
	e.PutU64(r.EndChunk)
}

// Decode implements wire.Message.
func (r *MapReq) Decode(d *wire.Decoder) {
	r.ID = d.U64()
	r.StartChunk = d.U64()
	r.EndChunk = d.U64()
}

// Entry is one chunk's location in the flat map.
type Entry struct {
	Index    uint64
	Provider string
	Key      chunk.Key
	Length   uint32
}

// MapResp returns chunk map entries plus the object size.
type MapResp struct {
	SizeBytes uint64
	Entries   []Entry
}

// Encode implements wire.Message.
func (r *MapResp) Encode(e *wire.Encoder) {
	e.PutU64(r.SizeBytes)
	e.PutU32(uint32(len(r.Entries)))
	for _, ent := range r.Entries {
		e.PutU64(ent.Index)
		e.PutString(ent.Provider)
		e.PutU64(ent.Key.Blob)
		e.PutU64(ent.Key.Version)
		e.PutU64(ent.Key.Index)
		e.PutU32(ent.Length)
	}
}

// Decode implements wire.Message.
func (r *MapResp) Decode(d *wire.Decoder) {
	r.SizeBytes = d.U64()
	n := d.U32()
	r.Entries = nil
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var ent Entry
		ent.Index = d.U64()
		ent.Provider = d.String()
		ent.Key.Blob = d.U64()
		ent.Key.Version = d.U64()
		ent.Key.Index = d.U64()
		ent.Length = d.U32()
		r.Entries = append(r.Entries, ent)
	}
}

// SetMapReq installs new chunk map entries (under the write lock).
type SetMapReq struct {
	ID        uint64
	SizeBytes uint64
	Entries   []Entry
}

// Encode implements wire.Message.
func (r *SetMapReq) Encode(e *wire.Encoder) {
	e.PutU64(r.ID)
	(&MapResp{SizeBytes: r.SizeBytes, Entries: r.Entries}).Encode(e)
}

// Decode implements wire.Message.
func (r *SetMapReq) Decode(d *wire.Decoder) {
	r.ID = d.U64()
	var m MapResp
	m.Decode(d)
	r.SizeBytes = m.SizeBytes
	r.Entries = m.Entries
}

// Ack is the empty acknowledgment.
type Ack = provider.Ack

type object struct {
	chunkSize uint64
	lock      sync.RWMutex
	mu        sync.Mutex // guards the fields below
	size      uint64
	chunks    map[uint64]Entry
}

// Server is the centralized lock + flat-map manager.
type Server struct {
	srv    *rpc.Server
	mu     sync.Mutex
	objs   map[uint64]*object
	nextID uint64
}

// NewServer creates a lock server at addr.
func NewServer(network rpc.Network, addr string) *Server {
	s := &Server{srv: rpc.NewServer(network, addr), objs: make(map[uint64]*object), nextID: 1}
	rpc.HandleMsg(s.srv, MethodCreate, func() *CreateReq { return &CreateReq{} },
		func(req *CreateReq) (*CreateResp, error) {
			if req.ChunkSize == 0 {
				return nil, errors.New("lockstore: chunk size must be positive")
			}
			s.mu.Lock()
			id := s.nextID
			s.nextID++
			s.objs[id] = &object{chunkSize: req.ChunkSize, chunks: make(map[uint64]Entry)}
			s.mu.Unlock()
			return &CreateResp{ID: id}, nil
		})
	rpc.HandleMsg(s.srv, MethodAcquire, func() *LockReq { return &LockReq{} },
		func(req *LockReq) (*Ack, error) {
			o, err := s.object(req.ID)
			if err != nil {
				return nil, err
			}
			// The handler goroutine blocks until the lock is granted; the
			// matching Release may come from any connection.
			if req.Write {
				o.lock.Lock()
			} else {
				o.lock.RLock()
			}
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodRelease, func() *LockReq { return &LockReq{} },
		func(req *LockReq) (*Ack, error) {
			o, err := s.object(req.ID)
			if err != nil {
				return nil, err
			}
			if req.Write {
				o.lock.Unlock()
			} else {
				o.lock.RUnlock()
			}
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodGetMap, func() *MapReq { return &MapReq{} },
		func(req *MapReq) (*MapResp, error) {
			o, err := s.object(req.ID)
			if err != nil {
				return nil, err
			}
			o.mu.Lock()
			defer o.mu.Unlock()
			resp := &MapResp{SizeBytes: o.size}
			for i := req.StartChunk; i < req.EndChunk; i++ {
				if ent, ok := o.chunks[i]; ok {
					resp.Entries = append(resp.Entries, ent)
				}
			}
			return resp, nil
		})
	rpc.HandleMsg(s.srv, MethodSetMap, func() *SetMapReq { return &SetMapReq{} },
		func(req *SetMapReq) (*Ack, error) {
			o, err := s.object(req.ID)
			if err != nil {
				return nil, err
			}
			o.mu.Lock()
			defer o.mu.Unlock()
			for _, ent := range req.Entries {
				o.chunks[ent.Index] = ent
			}
			if req.SizeBytes > o.size {
				o.size = req.SizeBytes
			}
			return &Ack{}, nil
		})
	return s
}

func (s *Server) object(id uint64) (*object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchObject, id)
	}
	return o, nil
}

// Start begins serving.
func (s *Server) Start() error { return s.srv.Start() }

// Close stops serving.
func (s *Server) Close() { s.srv.Close() }

// Addr returns the lock server's address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Client accesses one lockstore deployment.
type Client struct {
	rpc    *rpc.Client
	lsAddr string
	pmAddr string
}

// NewClient builds a client for the lock server at lsAddr, placing chunks
// through the provider manager at pmAddr.
func NewClient(network rpc.Network, name, lsAddr, pmAddr string, timeout time.Duration) *Client {
	return &Client{rpc: rpc.NewClientFrom(network, timeout, name), lsAddr: lsAddr, pmAddr: pmAddr}
}

// Close releases connections.
func (c *Client) Close() { c.rpc.Close() }

// Object is a handle on one flat locked object.
type Object struct {
	c         *Client
	id        uint64
	chunkSize uint64
}

var writeSeq atomic.Uint64

// Create registers a new flat object.
func (c *Client) Create(chunkSize uint64) (*Object, error) {
	var resp CreateResp
	if err := c.rpc.Call(c.lsAddr, MethodCreate, &CreateReq{ChunkSize: chunkSize}, &resp); err != nil {
		return nil, err
	}
	return &Object{c: c, id: resp.ID, chunkSize: chunkSize}, nil
}

// ID returns the object identifier.
func (o *Object) ID() uint64 { return o.id }

// Open re-attaches to an object created elsewhere.
func (c *Client) Open(id, chunkSize uint64) *Object {
	return &Object{c: c, id: id, chunkSize: chunkSize}
}

// Write stores p at offset off under the exclusive lock: all readers and
// writers are excluded for the full duration of the data transfer — the
// behavior BlobSeer's versioning eliminates. Only chunk-aligned writes are
// supported (the experiments use aligned grains).
func (o *Object) Write(p []byte, off uint64) error {
	cs := o.chunkSize
	if off%cs != 0 {
		return errors.New("lockstore: writes must be chunk-aligned")
	}
	if err := o.c.rpc.Call(o.c.lsAddr, MethodAcquire, &LockReq{ID: o.id, Write: true}, &Ack{}); err != nil {
		return err
	}
	defer o.c.rpc.Call(o.c.lsAddr, MethodRelease, &LockReq{ID: o.id, Write: true}, &Ack{})

	end := off + uint64(len(p))
	nChunks := int((uint64(len(p)) + cs - 1) / cs)
	var alloc pmanager.AllocateResp
	err := o.c.rpc.Call(o.c.pmAddr, pmanager.MethodAllocate,
		&pmanager.AllocateReq{NumChunks: uint32(nChunks), Replication: 1}, &alloc)
	if err != nil {
		return err
	}
	entries := make([]Entry, nChunks)
	wid := writeSeq.Add(1)
	for i := 0; i < nChunks; i++ {
		idx := off/cs + uint64(i)
		lo := uint64(i) * cs
		hi := lo + cs
		if hi > uint64(len(p)) {
			hi = uint64(len(p))
		}
		key := chunk.Key{Blob: o.id, Version: wid, Index: idx}
		if err := provider.PutChunk(o.c.rpc, alloc.Sets[i][0], key, p[lo:hi]); err != nil {
			return err
		}
		entries[i] = Entry{Index: idx, Provider: alloc.Sets[i][0], Key: key, Length: uint32(hi - lo)}
	}
	return o.c.rpc.Call(o.c.lsAddr, MethodSetMap,
		&SetMapReq{ID: o.id, SizeBytes: end, Entries: entries}, &Ack{})
}

// Read fills p from offset off under the shared lock.
func (o *Object) Read(p []byte, off uint64) (int, error) {
	if err := o.c.rpc.Call(o.c.lsAddr, MethodAcquire, &LockReq{ID: o.id, Write: false}, &Ack{}); err != nil {
		return 0, err
	}
	defer o.c.rpc.Call(o.c.lsAddr, MethodRelease, &LockReq{ID: o.id, Write: false}, &Ack{})

	cs := o.chunkSize
	end := off + uint64(len(p))
	var m MapResp
	err := o.c.rpc.Call(o.c.lsAddr, MethodGetMap,
		&MapReq{ID: o.id, StartChunk: off / cs, EndChunk: (end + cs - 1) / cs}, &m)
	if err != nil {
		return 0, err
	}
	if off >= m.SizeBytes {
		return 0, nil
	}
	if end > m.SizeBytes {
		end = m.SizeBytes
	}
	byIndex := make(map[uint64]Entry, len(m.Entries))
	for _, ent := range m.Entries {
		byIndex[ent.Index] = ent
	}
	n := 0
	for i := off / cs; i*cs < end; i++ {
		lo, hi := maxU64(i*cs, off), minU64((i+1)*cs, end)
		dst := p[lo-off : hi-off]
		ent, ok := byIndex[i]
		if !ok {
			for j := range dst {
				dst[j] = 0
			}
			n += len(dst)
			continue
		}
		data, err := provider.GetChunk(o.c.rpc, ent.Provider, ent.Key)
		if err != nil {
			return n, err
		}
		inLo := lo - i*cs
		for j := range dst {
			pos := inLo + uint64(j)
			if pos < uint64(len(data)) {
				dst[j] = data[pos]
			} else {
				dst[j] = 0
			}
		}
		n += len(dst)
	}
	return n, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
