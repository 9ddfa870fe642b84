// Package provider implements BlobSeer's data providers: the services that
// "physically store the chunks" (§I-B2). A provider is a thin RPC shim
// over a chunk.Store engine (RAM or disk) plus a heartbeat loop that
// reports capacity to the provider manager.
package provider

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Method names served by a data provider.
const (
	MethodPutChunks    = "provider.putchunks"
	MethodGet          = "provider.get"
	MethodGetChunks    = "provider.getchunks"
	MethodStats        = "provider.stats"
	MethodListChunks   = "provider.list"
	MethodDeleteChunks = "provider.delete"
	MethodTombstones   = "provider.tombstone"
)

// ErrBlobDeleted rejects chunk puts for tombstoned (deleted) blobs. The
// text crosses the RPC boundary as a string; clients match it to abort
// rather than retry.
var ErrBlobDeleted = fmt.Errorf("provider: blob deleted")

// PutItem is one chunk within a batched put. Digest is the
// writer-computed content digest (algorithm id + sum); the provider
// re-checks the received bytes against it, so corruption in transit is
// rejected at ingest instead of persisted. A zero digest is accepted (the
// provider computes its own).
type PutItem struct {
	Key    chunk.Key
	Data   []byte
	Digest chunk.Digest
}

func (it *PutItem) wire(c *wire.Codec) {
	it.Key.Wire(c)
	c.Bytes(&it.Data)
	it.Digest.Wire(c)
}

// PutChunksReq stores a batch of chunks in one round trip. This is the
// hot-path write RPC: a writer groups every chunk destined for the same
// provider into one putchunks, so a W-chunk write costs O(providers)
// round trips instead of one per chunk per replica (the write-plane twin
// of meta.getnodes).
type PutChunksReq struct {
	Items []PutItem
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
// Each decoded item's Data aliases the body.
func (r *PutChunksReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PutChunksReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PutChunksReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Items, wire.MaxCount, (*PutItem).wire)
}

// Size implements wire.Sizer.
func (r *PutChunksReq) Size(refFrom int) int {
	n := 4
	for _, it := range r.Items {
		n += 24 + 4 + wire.Copied(len(it.Data), refFrom) + 5 // key, length-prefixed payload, digest
	}
	return n
}

// PutChunksResp reports per-chunk outcomes, aligned with the request
// items: an empty string is success, anything else is that chunk's error.
// Per-chunk isolation is what lets one rejected chunk (say, a tombstoned
// blob sharing the batch) fail alone instead of taking its batch-mates'
// replicas down with it.
type PutChunksResp struct {
	Errs []string
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *PutChunksResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PutChunksResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PutChunksResp) Wire(c *wire.Codec) {
	c.Strings(&r.Errs, wire.MaxCount)
}

// GetReq fetches one chunk, or — when Offset/Length name a sub-range —
// only the bytes [Offset, Offset+Length) of it, clipped to the stored
// size. The zero range (Offset == 0, Length == 0) means the whole chunk;
// Length == 0 with a nonzero Offset means "from Offset to the end".
// Ranged gets are what keep unaligned boundary reads (and the
// read-modify-write merge) from dragging whole chunks across the wire.
type GetReq struct {
	Key    chunk.Key
	Offset uint64
	Length uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *GetReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GetReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GetReq) Wire(c *wire.Codec) {
	r.Key.Wire(c)
	c.U64(&r.Offset)
	c.U64(&r.Length)
}

// GetResp returns chunk bytes when found. Digest is the full chunk's
// recorded content digest (zero for legacy chunks still awaiting
// backfill): a whole-chunk reader re-verifies the received bytes against
// it end-to-end, catching corruption in transit that the provider-side
// check cannot see.
type GetResp struct {
	Found  bool
	Data   []byte
	Digest chunk.Digest

	buf []byte // pooled buffer Data may alias; see Release
	dst []byte // the caller's buffer for Data; see Lands
}

// Release returns the pooled buffer behind Data: on the provider the read
// buffer, which the rpc server releases once the reply is sent; on the
// client the received frame, which whoever holds the decoded reply
// releases once done with Data. Data must not be used afterwards.
func (r *GetResp) Release() {
	wire.PutBuf(r.buf)
	r.buf = nil
}

// TakeFrame hands a decoded reply the frame its Data aliases, for Release
// to return (the rpc client calls it).
func (r *GetResp) TakeFrame(frame []byte) { r.buf = frame }

// Lands reports whether the reply names a buffer of the caller's for
// Data, which the rpc client reads the payload straight into when it can
// (see rpc.Client.CallCtx).
func (r *GetResp) Lands() bool { return r.dst != nil }

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
// A decoded Data aliases the body.
func (r *GetResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GetResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GetResp) Wire(c *wire.Codec) {
	c.Bool(&r.Found)
	c.Land(&r.Data, r.dst)
	r.Digest.Wire(c)
}

// Size implements wire.Sizer.
func (r *GetResp) Size(refFrom int) int { return 1 + 4 + wire.Copied(len(r.Data), refFrom) + 5 }

// GetChunksReq fetches a batch of whole chunks in one round trip: the
// read-plane twin of putchunks. A client read sends one per replica set
// and byte budget of the chunks it reads whole, and the repair engine one
// per surviving replica it drains (re-replication, rebalance migration),
// instead of one RPC per chunk.
type GetChunksReq struct {
	Keys []chunk.Key
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *GetChunksReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GetChunksReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GetChunksReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Keys, wire.MaxCount, (*chunk.Key).Wire)
}

// GetChunksResp returns the chunks aligned with the request keys, one
// record per key: Found, Corrupt, and for a found chunk its
// length-prefixed Data and Digest. Found false marks a key this provider
// does not hold (ordinary for a possibly stale replica list, not an
// error). A Corrupt entry marks a copy that failed verification — the
// provider quarantined it and serves no bytes; callers must treat the
// replica as lost, not absent. Digests carry each served chunk's
// recorded digest so the receiver re-verifies before trusting the bytes
// (GetChunksInto does). Over TCP, a client that names a buffer per key
// gets each Data read from the socket straight into its buffer.
type GetChunksResp struct {
	Found   []bool
	Corrupt []bool
	Data    [][]byte
	Digests []chunk.Digest

	bufs  [][]byte // pooled read buffers Data may alias; see Release
	frame []byte   // the received frame Data may alias; see Release
	dst   [][]byte // the caller's buffers, dst[i] for Data[i]; see Lands
}

// Release returns the pooled buffers behind Data: on the provider the
// read buffers, which the rpc server releases once the reply is sent; on
// the client the received frame. Data must not be used afterwards.
func (r *GetChunksResp) Release() {
	for _, b := range r.bufs {
		wire.PutBuf(b)
	}
	r.bufs = nil
	wire.PutBuf(r.frame)
	r.frame = nil
}

// TakeFrame hands a decoded reply the frame its Data may alias, for
// Release to return (the rpc client calls it).
func (r *GetChunksResp) TakeFrame(frame []byte) { r.frame = frame }

// Lands reports whether the reply names buffers of the caller's for its
// Data entries (see GetResp.Lands).
func (r *GetChunksResp) Lands() bool { return r.dst != nil }

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
// Each decoded Data entry aliases the body or lands in its buffer.
func (r *GetChunksResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GetChunksResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GetChunksResp) Wire(c *wire.Codec) {
	n := len(r.Found)
	c.Count(&n, wire.MaxCount)
	wire.Make(c, &r.Found, n)
	wire.Make(c, &r.Corrupt, n)
	wire.Make(c, &r.Data, n)
	wire.Make(c, &r.Digests, n)
	for i := range n {
		c.Bool(&r.Found[i])
		c.Bool(&r.Corrupt[i])
		if r.Found[i] {
			var dst []byte
			if i < len(r.dst) {
				dst = r.dst[i]
			}
			c.Land(&r.Data[i], dst)
			r.Digests[i].Wire(c)
		}
	}
}

// Size implements wire.Sizer.
func (r *GetChunksResp) Size(refFrom int) int {
	n := 4 + 2*len(r.Found)
	for i, ok := range r.Found {
		if ok {
			n += 4 + wire.Copied(len(r.Data[i]), refFrom) + 5
		}
	}
	return n
}

// Counter names one provider counter. The ids index Counters and
// CounterTable, and their order is the wire order of provider.stats, so
// new counters are appended, never inserted.
type Counter uint8

// The provider counters, grouped by plane: provider (inventory and
// transfer) and chunk (integrity).
const (
	Chunks Counter = iota
	Bytes
	Puts
	Gets
	Deletes
	PutBatches
	GetBatches
	BytesIn
	BytesOut
	Verified
	Corrupt
	Quarantined
	Backfilled
	NumCounters
)

// CounterTable is the one place a provider counter is declared; the wire
// codec, the /metrics families and the CLI output all range over it.
// Puts/PutBatches is the server-side view of the write-plane coalescing
// factor; a ranged read adds only the bytes it moves to BytesOut.
var CounterTable = [NumCounters]metrics.CounterDef{
	Chunks:     {Plane: "provider", Name: "chunks", Metric: "chunks", Help: "Chunk replicas resident on the provider."},
	Bytes:      {Plane: "provider", Name: "bytes", Metric: "bytes", Help: "Payload bytes resident on the provider."},
	Puts:       {Plane: "provider", Name: "puts", Metric: "puts_total", Help: "Individual chunks stored (across put and putchunks)."},
	Gets:       {Plane: "provider", Name: "gets", Metric: "gets_total", Help: "Individual chunk retrievals served (across get and getchunks)."},
	Deletes:    {Plane: "provider", Name: "deletes", Metric: "deletes_total", Help: "Chunk deletions applied."},
	PutBatches: {Plane: "provider", Name: "put-batches", Metric: "put_batches_total", Help: "putchunks RPCs served (puts/put_batches is the write coalescing factor)."},
	GetBatches: {Plane: "provider", Name: "get-batches", Metric: "get_batches_total", Help: "getchunks RPCs served (whole-chunk client reads and repair source reads)."},
	BytesIn:    {Plane: "provider", Name: "bytes-in", Metric: "bytes_in_total", Help: "Payload bytes accepted by puts."},
	BytesOut:   {Plane: "provider", Name: "bytes-out", Metric: "bytes_out_total", Help: "Payload bytes served by gets (ranged reads move only what they need)."},

	Verified:    {Plane: "chunk", Name: "verified", Metric: "verifications_total", Help: "Full-chunk digest checks performed (reads, ingest and scrub)."},
	Corrupt:     {Plane: "chunk", Name: "corrupt", Metric: "corruption_total", Help: "Chunk copies that failed a digest check (each counted once, at quarantine)."},
	Quarantined: {Plane: "chunk", Name: "quarantined", Metric: "quarantined", Help: "Chunk copies currently quarantined awaiting repair and deletion."},
	Backfilled:  {Plane: "chunk", Name: "backfilled", Metric: "digest_backfilled_total", Help: "Legacy digestless chunks whose digest was minted on first clean read."},
}

// Counters is one value per provider counter: the provider.stats
// response and the in-process snapshot alike.
type Counters [NumCounters]uint64

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (c *Counters) Encode(e *wire.Encoder) { c.Wire(e.Codec()) }
func (c *Counters) Decode(d *wire.Decoder) { c.Wire(d.Codec()) }
func (c *Counters) Wire(w *wire.Codec) {
	for i := range c {
		w.U64(&c[i])
	}
}

// ListChunksReq asks for the provider's inventory of one blob, or the
// whole inventory when Blob is 0 (blob IDs start at 1). Used by garbage
// collection: orphan detection and blob deletion.
type ListChunksReq struct {
	Blob uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ListChunksReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ListChunksReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ListChunksReq) Wire(c *wire.Codec)     { c.U64(&r.Blob) }

// ListChunksResp returns the stored keys of one blob plus each chunk's age
// since it was put (milliseconds). Chunks whose put time is unknown (for
// example after a disk-store restart) are aged from when the provider
// first listed them, so they always get a full grace period before orphan
// collection.
type ListChunksResp struct {
	Keys  []chunk.Key
	AgeMs []uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ListChunksResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ListChunksResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ListChunksResp) Wire(c *wire.Codec) {
	n := len(r.Keys)
	c.Count(&n, wire.MaxCount)
	wire.Make(c, &r.Keys, n)
	wire.Make(c, &r.AgeMs, n)
	for i := range n {
		r.Keys[i].Wire(c)
		c.U64(&r.AgeMs[i])
	}
}

// DeleteChunksReq removes chunks (idempotent; absent keys are ignored).
type DeleteChunksReq struct {
	Keys []chunk.Key
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *DeleteChunksReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *DeleteChunksReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *DeleteChunksReq) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Keys, wire.MaxCount, (*chunk.Key).Wire)
}

// TombstonesReq marks blobs as deleted on this provider: any later chunk
// put for them is rejected. Sent by the GC's delete sweep BEFORE it lists
// and deletes the blob's chunks, which closes the delete race — a phase-1
// upload landing after the sweep's listing would otherwise leak until the
// blob's next sweep.
type TombstonesReq struct {
	Blobs []uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *TombstonesReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *TombstonesReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *TombstonesReq) Wire(c *wire.Codec) {
	c.U64s(&r.Blobs, wire.MaxCount)
}

// DeleteChunksResp reports what a delete reclaimed on this provider.
type DeleteChunksResp struct {
	Deleted uint64
	Bytes   uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *DeleteChunksResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *DeleteChunksResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *DeleteChunksResp) Wire(c *wire.Codec) {
	c.U64(&r.Deleted)
	c.U64(&r.Bytes)
}

// Ack is the empty acknowledgment.
type Ack = wireAck

type wireAck struct{}

func (a *wireAck) Encode(e *wire.Encoder) {}
func (a *wireAck) Decode(d *wire.Decoder) {}

// Options tune a data provider beyond its chunk engine.
type Options struct {
	// SidecarDir, when set, makes the provider's companion state durable:
	// per-chunk put times and deleted-blob tombstones are journaled (with
	// group commit) to a durable.Log in this directory and replayed on
	// start, so a restarted provider keeps rejecting late puts for deleted
	// blobs and reports true chunk ages to the orphan sweep instead of
	// re-gracing everything. Empty keeps the seed's in-memory behavior.
	SidecarDir string
	// FsyncSidecar fsyncs sidecar appends (group-committed). Without it,
	// records survive process crashes but not machine crashes.
	FsyncSidecar bool
	// CapacityBytes is the provider's nominal storage capacity, reported
	// to the provider manager through heartbeats so placement and the
	// rebalancer can score fullness. 0 means unknown/unbounded.
	CapacityBytes int64
}

// Server is one data provider process.
type Server struct {
	store    chunk.Store
	srv      *rpc.Server
	capBytes int64
	side     *sidecar // nil when the sidecar is not configured

	// counts holds the counters the handlers bump, indexed by Counter;
	// Chunks, Bytes and Quarantined are computed when read (Counters).
	counts [NumCounters]metrics.Counter

	// digests holds each stored chunk's integrity manifest (content
	// digest + exact length), replayed from the sidecar; quarantine holds
	// copies that failed verification — never served, never a repair
	// source, reported via MethodCorruptList until repair deletes them.
	digMu      sync.Mutex
	digests    map[chunk.Key]digestRec
	quarantine map[chunk.Key]struct{}

	// putTimes records when each chunk arrived, so the GC orphan sweep can
	// apply an age grace that protects phase-1 uploads of writes still in
	// flight. Chunks without an entry (disk store restart without a
	// sidecar) are stamped when first listed, restarting their grace
	// clock; with a sidecar the entries replay and ages survive restarts.
	putMu    sync.Mutex
	putTimes map[chunk.Key]time.Time

	// tombstones remembers deleted blob IDs (fed by the GC delete sweep)
	// so late phase-1 puts for them are rejected instead of leaking.
	// Without a sidecar the set is in-memory only and refills on the
	// deleted blob's next sweep after a restart (it stays in GCWork until
	// every provider was visited again); with one, it replays.
	tombMu     sync.Mutex
	tombstones map[uint64]struct{}

	mu      sync.Mutex
	hbStop  chan struct{}
	hbDone  chan struct{}
	stopped bool
}

// NewServer creates a data provider at addr backed by store, with durable
// sidecar state and/or a capacity declaration (see Options; the zero
// Options is a volatile, uncapped provider).
func NewServer(network rpc.Network, addr string, store chunk.Store, opts Options) (*Server, error) {
	s := &Server{
		store:      store,
		srv:        rpc.NewServer(network, addr),
		capBytes:   opts.CapacityBytes,
		putTimes:   make(map[chunk.Key]time.Time),
		tombstones: make(map[uint64]struct{}),
		digests:    make(map[chunk.Key]digestRec),
		quarantine: make(map[chunk.Key]struct{}),
	}
	if opts.SidecarDir != "" {
		side, putTimes, tombs, digests, err := openSidecar(opts.SidecarDir, opts.FsyncSidecar)
		if err != nil {
			return nil, err
		}
		s.side, s.putTimes, s.tombstones, s.digests = side, putTimes, tombs, digests
		// Torn-file detection: a disk chunk whose length disagrees with
		// its journaled manifest is quarantined before it can be served.
		s.bootCheck()
	}
	rpc.HandleMsg(s.srv, MethodPutChunks, func() *PutChunksReq { return &PutChunksReq{} },
		func(req *PutChunksReq) (*PutChunksResp, error) {
			s.counts[PutBatches].Add(1)
			resp := &PutChunksResp{Errs: make([]string, len(req.Items))}
			for i, err := range s.putBatch(req.Items) {
				if err != nil {
					resp.Errs[i] = err.Error()
				}
			}
			return resp, nil
		})
	rpc.HandleMsg(s.srv, MethodGet, func() *GetReq { return &GetReq{} },
		func(req *GetReq) (*GetResp, error) {
			s.counts[Gets].Add(1)
			whole := req.Offset == 0 && req.Length == 0
			s.digMu.Lock()
			_, hasDig := s.digests[req.Key]
			s.digMu.Unlock()
			resp := &GetResp{}
			var data []byte
			var err error
			if whole || hasDig {
				// Verify the full chunk even for a sub-range when a digest
				// is on file: a few extra bytes off disk beats serving rot.
				resp.buf = s.readBuf(req.Key)
				data, resp.Digest, _, err = s.getVerified(req.Key, resp.buf)
				if err == nil && !whole {
					data = chunk.Clip(data, req.Offset, req.Length)
				}
			} else {
				// Legacy chunk (no digest yet), ranged read: nothing on
				// file to check a partial read against.
				data, err = s.store.GetRange(req.Key, req.Offset, req.Length)
			}
			if IsCorrupt(err) {
				return nil, err
			}
			if err != nil {
				return resp, nil // not found; still carries its buffer
			}
			s.counts[BytesOut].Add(int64(len(data)))
			resp.Found, resp.Data = true, data
			return resp, nil
		})
	rpc.HandleMsg(s.srv, MethodGetChunks, func() *GetChunksReq { return &GetChunksReq{} },
		func(req *GetChunksReq) (*GetChunksResp, error) {
			s.counts[GetBatches].Add(1)
			s.counts[Gets].Add(int64(len(req.Keys)))
			resp := &GetChunksResp{
				Found:   make([]bool, len(req.Keys)),
				Corrupt: make([]bool, len(req.Keys)),
				Data:    make([][]byte, len(req.Keys)),
				Digests: make([]chunk.Digest, len(req.Keys)),
				bufs:    make([][]byte, len(req.Keys)),
			}
			for i, k := range req.Keys {
				resp.bufs[i] = s.readBuf(k)
				data, dg, _, err := s.getVerified(k, resp.bufs[i])
				if IsCorrupt(err) {
					resp.Corrupt[i] = true // lost, not absent
					continue
				}
				if err != nil {
					continue // absent key: ordinary for a stale replica list
				}
				resp.Found[i] = true
				resp.Data[i] = data
				resp.Digests[i] = dg
				s.counts[BytesOut].Add(int64(len(data)))
			}
			return resp, nil
		})
	rpc.HandleMsg(s.srv, MethodVerify, func() *VerifyReq { return &VerifyReq{} },
		func(req *VerifyReq) (*VerifyResp, error) {
			// A reader reported an end-to-end mismatch. Trust only our own
			// recheck: getVerified quarantines if the stored bytes really
			// are bad; if they verify here, the reader saw transit
			// corruption and its retry will succeed.
			buf := s.readBuf(req.Key)
			_, _, _, err := s.getVerified(req.Key, buf)
			wire.PutBuf(buf)
			if IsCorrupt(err) {
				return &VerifyResp{Held: true, Corrupt: true}, nil
			}
			return &VerifyResp{Held: err == nil}, nil
		})
	rpc.HandleMsg(s.srv, MethodScrub, func() *ScrubReq { return &ScrubReq{} },
		func(req *ScrubReq) (*ScrubResp, error) {
			return s.scrubStep(req), nil
		})
	rpc.HandleMsg(s.srv, MethodCorruptList, func() *Ack { return &Ack{} },
		func(*Ack) (*CorruptListResp, error) {
			s.digMu.Lock()
			resp := &CorruptListResp{Keys: make([]chunk.Key, 0, len(s.quarantine))}
			for k := range s.quarantine {
				resp.Keys = append(resp.Keys, k)
			}
			s.digMu.Unlock()
			sort.Slice(resp.Keys, func(i, j int) bool { return resp.Keys[i].Less(resp.Keys[j]) })
			return resp, nil
		})
	rpc.HandleMsg(s.srv, MethodStats, func() *Ack { return &Ack{} },
		func(*Ack) (*Counters, error) {
			c := s.Counters()
			return &c, nil
		})
	rpc.HandleMsg(s.srv, MethodListChunks, func() *ListChunksReq { return &ListChunksReq{} },
		func(req *ListChunksReq) (*ListChunksResp, error) {
			// Snapshot the inventory before taking putMu: Keys() may be
			// slow on a disk store and Put handlers need putMu.
			keys := s.store.Keys()
			now := time.Now()
			resp := &ListChunksResp{}
			s.putMu.Lock()
			for _, k := range keys {
				if req.Blob != 0 && k.Blob != req.Blob {
					continue
				}
				// A chunk with no recorded put time was persisted before
				// this process started (disk store restart). It could be
				// phase-1 state of a write still in flight, so it must
				// get the full grace period: stamp it first-seen now and
				// age it from there, rather than reporting maximal age
				// and risking deletion of a chunk a commit is about to
				// reference.
				t, ok := s.putTimes[k]
				if !ok {
					t = now
					s.putTimes[k] = t
				}
				resp.Keys = append(resp.Keys, k)
				resp.AgeMs = append(resp.AgeMs, uint64(now.Sub(t)/time.Millisecond))
			}
			s.putMu.Unlock()
			return resp, nil
		})
	rpc.HandleMsg(s.srv, MethodTombstones, func() *TombstonesReq { return &TombstonesReq{} },
		func(req *TombstonesReq) (*Ack, error) {
			s.tombMu.Lock()
			for _, b := range req.Blobs {
				s.tombstones[b] = struct{}{}
			}
			s.tombMu.Unlock()
			// The tombstone must be journaled BEFORE the ack: the delete
			// sweep counts this provider as visited once we answer, so the
			// rejection guarantee has to survive a restart. An append
			// failure fails the RPC and the sweep retries.
			if s.side != nil {
				if err := s.side.appendTombstones(req.Blobs); err != nil {
					return nil, err
				}
				s.maybeCompactSidecar()
			}
			return &Ack{}, nil
		})
	rpc.HandleMsg(s.srv, MethodDeleteChunks, func() *DeleteChunksReq { return &DeleteChunksReq{} },
		func(req *DeleteChunksReq) (*DeleteChunksResp, error) {
			resp := &DeleteChunksResp{}
			// Account freed bytes via the store's byte gauge instead of
			// reading every payload back before deleting it; a concurrent
			// Put can skew the delta slightly, but this is metrics, and
			// doubling GC disk I/O to make it exact is a bad trade.
			before := s.store.Bytes()
			var dropped []chunk.Key
			for _, k := range req.Keys {
				if !s.store.Has(k) {
					continue // already gone; deletes are idempotent
				}
				if err := s.store.Delete(k); err != nil {
					return nil, err
				}
				s.putMu.Lock()
				delete(s.putTimes, k)
				s.putMu.Unlock()
				s.dropIntegrity(k)
				dropped = append(dropped, k)
				s.counts[Deletes].Add(1)
				resp.Deleted++
			}
			if s.side != nil && len(dropped) > 0 {
				// Advisory: a lost delete record only leaks a put-age entry
				// until the next sidecar compaction filters it out.
				wait := s.side.appendDeletes(dropped)
				_ = wait()
				s.maybeCompactSidecar()
			}
			if after := s.store.Bytes(); before > after {
				resp.Bytes = uint64(before - after)
			}
			return resp, nil
		})
	return s, nil
}

// maybeCompactSidecar snapshots the put-age table, tombstone set and
// digests into the sidecar log once it has grown enough. Entries for
// chunks the store no longer holds are filtered out here, bounding the
// replayed state by the live inventory. Each section is sorted (by key,
// tombstones ascending), so one state always compacts to the same bytes.
func (s *Server) maybeCompactSidecar() {
	s.side.maybeCompact(func() ([]byte, bool) {
		s.putMu.Lock()
		ages := make([]ageEntry, 0, len(s.putTimes))
		for k, t := range s.putTimes {
			if s.store.Has(k) {
				ages = append(ages, ageEntry{Key: k, AtMs: uint64(t.UnixMilli())})
			}
		}
		s.putMu.Unlock()
		sort.Slice(ages, func(i, j int) bool { return ages[i].Key.Less(ages[j].Key) })
		s.tombMu.Lock()
		tombs := make([]uint64, 0, len(s.tombstones))
		for b := range s.tombstones {
			tombs = append(tombs, b)
		}
		s.tombMu.Unlock()
		sort.Slice(tombs, func(i, j int) bool { return tombs[i] < tombs[j] })
		s.digMu.Lock()
		digs := make([]digestEntry, 0, len(s.digests))
		for k, rec := range s.digests {
			if s.store.Has(k) {
				digs = append(digs, digestEntry{Key: k, Rec: rec})
			}
		}
		s.digMu.Unlock()
		sort.Slice(digs, func(i, j int) bool { return digs[i].Key.Less(digs[j].Key) })
		return encodeRecord(
			section{kind: sideRecPutAge, ages: ages},
			section{kind: sideRecTomb, tombs: tombs},
			section{kind: sideRecDigest, digs: digs},
		), true
	})
}

// putBatch stores a batch of chunks and returns one outcome per item (nil
// means stored). Each chunk in turn gets the tombstone check, ingest
// digest verification, engine put, and its in-RAM digest and put time
// right after the put, so the in-memory view never lags the store. The
// chunks that landed are then journaled as ONE sidecar record, reserved
// under putMu after the batch's last RAM update, and its single
// group-commit wait is paid before returning: the caller's ack means the
// records are durable.
func (s *Server) putBatch(items []PutItem) []error {
	errs := make([]error, len(items))
	ages := make([]ageEntry, 0, len(items))
	digs := make([]digestEntry, 0, len(items))
	for i := range items {
		key, data, dg := items[i].Key, items[i].Data, items[i].Digest
		s.counts[Puts].Add(1)
		s.tombMu.Lock()
		_, dead := s.tombstones[key.Blob]
		s.tombMu.Unlock()
		if dead {
			errs[i] = fmt.Errorf("%w: %d", ErrBlobDeleted, key.Blob)
			continue
		}
		if dg.IsZero() {
			// Writer sent no digest (older client): mint one at ingest so
			// the chunk is verifiable from now on.
			dg = chunk.DigestOf(data)
		} else if !dg.Verify(data) {
			// The bytes changed between the writer's digest computation
			// and here — corruption in transit. Reject instead of
			// persisting rot; the writer's retry path treats this like any
			// failed put.
			s.counts[Corrupt].Add(1)
			errs[i] = fmt.Errorf("%w: put of %s failed ingest digest check", ErrChunkCorrupt, key)
			continue
		}
		if err := s.store.Put(key, data); err != nil {
			errs[i] = err
			continue
		}
		rec := digestRec{Digest: dg, Length: uint32(len(data))}
		s.digMu.Lock()
		s.digests[key] = rec
		s.digMu.Unlock()
		s.counts[BytesIn].Add(int64(len(data)))
		s.putMu.Lock()
		now := time.Now()
		s.putTimes[key] = now
		s.putMu.Unlock()
		ages = append(ages, ageEntry{Key: key, AtMs: uint64(now.UnixMilli())})
		digs = append(digs, digestEntry{Key: key, Rec: rec})
	}
	if s.side == nil || len(ages) == 0 {
		return errs
	}
	// Reserve WAL order under putMu, after every RAM update the record
	// carries; commit outside it: concurrent batches group-commit. A
	// failed append is tolerated — the entries are advisory; losing them
	// re-graces these chunks and leaves their digests to be backfilled on
	// their next clean read. A delete racing the batch can leave replay an
	// entry for a chunk already gone; the next compaction filters it out.
	s.putMu.Lock()
	wait := s.side.appendChunkState(ages, digs)
	s.putMu.Unlock()
	_ = wait()
	s.maybeCompactSidecar()
	return errs
}

// Start begins serving chunk requests.
func (s *Server) Start() error { return s.srv.Start() }

// Addr returns the provider's address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Store exposes the underlying engine (tests, repair tooling).
func (s *Server) Store() chunk.Store { return s.store }

// Counters reports the provider's counters in-process — the same numbers
// the stats RPC serves, without a round trip (the /metrics registry
// scrapes this).
func (s *Server) Counters() Counters {
	var c Counters
	for id := range c {
		c[id] = uint64(s.counts[id].Load())
	}
	c[Chunks] = uint64(s.store.Len())
	c[Bytes] = uint64(s.store.Bytes())
	c[Quarantined] = uint64(s.quarantinedCount())
	return c
}

// SidecarStats reports the sidecar WAL's cumulative append/write/fsync
// counts; ok is false when the provider runs without a sidecar.
func (s *Server) SidecarStats() (st durable.LogStats, ok bool) {
	if s.side == nil {
		return st, false
	}
	return s.side.log.Stats(), true
}

// SetRPCObserver attaches an observer to the provider's RPC server
// (per-method latency/bytes/error metrics).
func (s *Server) SetRPCObserver(o rpc.ServerObserver) { s.srv.SetObserver(o) }

// SetRPCTracer attaches a tracer to the RPC server: every inbound
// sampled request records a server span under the caller's trace.
func (s *Server) SetRPCTracer(t *trace.Tracer) { s.srv.SetTracer(t) }

// StartHeartbeats reports to the provider manager at pmAddr now and then
// every interval until Close. The first beat, which is also how a
// provider joins the manager, is sent before it returns and its error is
// returned; later failures are ignored: if the fabric says this node is
// down, the manager notices through the missing beats, and a manager not
// up yet hears the next beat once it is.
func (s *Server) StartHeartbeats(cli *rpc.Client, pmAddr string, interval time.Duration) error {
	err := s.heartbeat(cli, pmAddr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hbStop != nil || s.stopped {
		return err
	}
	s.hbStop, s.hbDone = make(chan struct{}), make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = s.heartbeat(cli, pmAddr)
			}
		}
	}(s.hbStop, s.hbDone)
	return err
}

// heartbeat sends one beat: the provider's load and free space.
func (s *Server) heartbeat(cli *rpc.Client, pmAddr string) error {
	used := s.store.Bytes()
	hb := &HeartbeatReq{
		Addr:   s.Addr(), // the BOUND address: a ":0" listen address names nobody
		Chunks: uint64(s.store.Len()),
		Bytes:  uint64(used),
	}
	if s.capBytes > 0 {
		hb.CapBytes = uint64(s.capBytes)
		if free := s.capBytes - used; free > 0 {
			hb.FreeBytes = uint64(free)
		}
	}
	return cli.CallCtx(context.Background(), pmAddr, MethodHeartbeat, hb, &Ack{})
}

// Close stops heartbeats, the RPC server, and the sidecar log.
func (s *Server) Close() {
	s.mu.Lock()
	s.stopped = true
	stop, done := s.hbStop, s.hbDone
	s.hbStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.srv.Close()
	if s.side != nil {
		_ = s.side.Close()
	}
}

// MethodHeartbeat is defined here (rather than in pmanager) so the
// provider package has no dependency on the manager's implementation.
const MethodHeartbeat = "pm.heartbeat"

// HeartbeatReq reports a provider's liveness, load, and free space. Cap
// and free bytes are what make placement capacity-aware: the provider
// manager folds them into allocation scoring and the repair engine's
// rebalance watermarks. CapBytes == 0 means the provider did not declare
// a capacity (unknown/unbounded).
type HeartbeatReq struct {
	Addr      string
	Chunks    uint64
	Bytes     uint64
	CapBytes  uint64
	FreeBytes uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *HeartbeatReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *HeartbeatReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *HeartbeatReq) Wire(c *wire.Codec) {
	c.String(&r.Addr)
	c.U64(&r.Chunks)
	c.U64(&r.Bytes)
	c.U64(&r.CapBytes)
	c.U64(&r.FreeBytes)
}

// PutChunksCtx stores a batch of chunks at one provider in one RPC. Items
// without a digest get one computed here (client-side, pre-wire); items
// that already carry one — repair forwarding a verified source read —
// keep it, extending the integrity chain across the copy. The returned
// slice is aligned with items: a nil entry means that chunk was stored;
// a non-nil one carries its individual rejection. A non-nil error means
// the RPC itself failed (transport, malformed reply) and nothing can be
// assumed stored.
func PutChunksCtx(ctx context.Context, cli *rpc.Client, addr string, items []PutItem) ([]error, error) {
	for i := range items {
		if items[i].Digest.IsZero() {
			items[i].Digest = chunk.DigestOf(items[i].Data)
		}
	}
	var resp PutChunksResp
	if err := cli.CallCtx(ctx, addr, MethodPutChunks, &PutChunksReq{Items: items}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Errs) != len(items) {
		return nil, fmt.Errorf("provider: putchunks at %s returned %d outcomes for %d items",
			addr, len(resp.Errs), len(items))
	}
	out := make([]error, len(items))
	for i, msg := range resp.Errs {
		if msg != "" {
			out[i] = fmt.Errorf("provider: chunk %s at %s: %s", items[i].Key, addr, msg)
		}
	}
	return out, nil
}

// PutChunks is PutChunksCtx with a background context.
func PutChunks(cli *rpc.Client, addr string, items []PutItem) ([]error, error) {
	return PutChunksCtx(context.Background(), cli, addr, items)
}

// GetChunk fetches one whole chunk from one provider (GetChunkRangeCtx
// with a background context and a zero range).
func GetChunk(cli *rpc.Client, addr string, key chunk.Key) ([]byte, error) {
	return GetChunkRangeCtx(context.Background(), cli, addr, key, 0, 0)
}

// GetChunkRange is GetChunkRangeCtx with a background context.
func GetChunkRange(cli *rpc.Client, addr string, key chunk.Key, off, length uint64) ([]byte, error) {
	return GetChunkRangeCtx(context.Background(), cli, addr, key, off, length)
}

// GetChunkRangeCtx fetches bytes [off, off+length) of one chunk from one
// provider (off == 0, length == 0 fetches the whole chunk; length == 0
// with off > 0 reads to the end). The range is clipped to the chunk's
// stored size, so the reply may be shorter than requested. The returned
// bytes alias the reply frame, which is never handed back to the pool;
// a reader with a buffer of its own uses GetChunkInto instead.
//
// Whole-chunk fetches re-verify the received bytes against the digest in
// the response — the end-to-end check that catches corruption in
// transit, which the provider's own pre-send verification cannot see. A
// mismatch returns ErrChunkCorrupt (the caller fails over to another
// replica) after asking the provider to recheck its copy, so at-rest rot
// this client noticed first still gets quarantined.
func GetChunkRangeCtx(ctx context.Context, cli *rpc.Client, addr string, key chunk.Key, off, length uint64) ([]byte, error) {
	resp, err := getChunk(ctx, cli, addr, key, off, length, nil)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// GetChunkInto is GetChunkRangeCtx reading into dst, returning the
// number of bytes read. Over TCP a reply that fits dst is read from the
// socket straight into it, and a whole chunk's digest is checked there;
// otherwise the reply's bytes are copied into dst (as many as fit) and
// its frame handed back to the pool. On error dst holds no claim, as
// with io.ReaderAt: it may hold any bytes, a corrupt replica's among
// them, so a failover to another replica reads into dst again. Nothing
// writes dst once GetChunkInto returns.
func GetChunkInto(ctx context.Context, cli *rpc.Client, addr string, key chunk.Key, off, length uint64, dst []byte) (int, error) {
	resp, err := getChunk(ctx, cli, addr, key, off, length, dst)
	if err != nil {
		return 0, err
	}
	n := len(resp.Data)
	if n > 0 && (len(dst) == 0 || &resp.Data[0] != &dst[0]) { // not landed
		n = copy(dst, resp.Data)
	}
	resp.Release()
	return n, nil
}

// getChunk is the get call under GetChunkRangeCtx and GetChunkInto,
// with the end-to-end digest check of a whole-chunk fetch; dst, when not
// nil, is where the reply's Data may land. On success the reply holds
// its frame, for the caller to Release once done with Data; on failure
// the frame is already released.
func getChunk(ctx context.Context, cli *rpc.Client, addr string, key chunk.Key, off, length uint64, dst []byte) (*GetResp, error) {
	resp := &GetResp{dst: dst}
	err := cli.CallCtx(ctx, addr, MethodGet, &GetReq{Key: key, Offset: off, Length: length}, resp)
	if err == nil && !resp.Found {
		err = fmt.Errorf("%w: %s at %s", chunk.ErrNotFound, key, addr)
	}
	if err == nil && off == 0 && length == 0 && !resp.Digest.Verify(resp.Data) {
		// Best effort: the provider's recheck decides whether its copy is
		// actually bad; we only know OUR copy of the bytes is.
		_, _ = VerifyChunk(ctx, cli, addr, key)
		err = fmt.Errorf("%w: %s from %s failed end-to-end digest check", ErrChunkCorrupt, key, addr)
	}
	if err != nil {
		resp.Release()
		return nil, err
	}
	return resp, nil
}

// Got is one chunk's outcome in a batched read (GetChunksInto): N bytes
// of it read into its buffer, with its recorded Digest, or Err.
type Got struct {
	N      int
	Digest chunk.Digest
	Err    error
}

// GetChunksInto fetches a batch of whole chunks from one provider in one
// RPC, chunk keys[i] into dst[i], and reports each one's outcome, aligned
// with keys. Over TCP each chunk that fits its buffer is read from the
// socket straight into it; otherwise its bytes are copied in (as many as
// fit) from the reply's frame. Every chunk's bytes are checked against
// its digest end to end, like GetChunkInto's: a mismatch asks the
// provider to verify its copy and fails that chunk with ErrChunkCorrupt,
// as does a copy the provider flagged corrupt; a chunk it does not hold
// fails with chunk.ErrNotFound. A non-nil error means the RPC itself
// failed and nothing can be assumed. The buffers are the caller's again
// once GetChunksInto returns: nothing writes them afterwards, and a
// failed chunk's buffer may hold any bytes.
func GetChunksInto(ctx context.Context, cli *rpc.Client, addr string, keys []chunk.Key, dst [][]byte) ([]Got, error) {
	resp := GetChunksResp{dst: dst}
	err := cli.CallCtx(ctx, addr, MethodGetChunks, &GetChunksReq{Keys: keys}, &resp)
	defer resp.Release()
	if err != nil {
		return nil, err
	}
	if len(resp.Found) != len(keys) || len(resp.Data) != len(keys) ||
		len(resp.Corrupt) != len(keys) || len(resp.Digests) != len(keys) {
		return nil, fmt.Errorf("provider: getchunks at %s returned %d outcomes for %d keys",
			addr, len(resp.Found), len(keys))
	}
	out := make([]Got, len(keys))
	for i, k := range keys {
		data := resp.Data[i]
		switch {
		case resp.Corrupt[i]:
			out[i].Err = fmt.Errorf("%w: %s at %s is quarantined", ErrChunkCorrupt, k, addr)
		case !resp.Found[i]:
			out[i].Err = fmt.Errorf("%w: %s at %s", chunk.ErrNotFound, k, addr)
		case !resp.Digests[i].Verify(data):
			// Best effort, as in getChunk: the provider's recheck decides
			// whether its copy is bad; only our copy of the bytes is.
			_, _ = VerifyChunk(ctx, cli, addr, k)
			out[i].Err = fmt.Errorf("%w: %s from %s failed end-to-end digest check", ErrChunkCorrupt, k, addr)
		default:
			n := len(data)
			if n > 0 && (len(dst[i]) == 0 || &data[0] != &dst[i][0]) { // not landed
				n = copy(dst[i], data)
			}
			out[i] = Got{N: n, Digest: resp.Digests[i]}
		}
	}
	return out, nil
}

// Stats queries a provider's counters.
func Stats(ctx context.Context, cli *rpc.Client, addr string) (*Counters, error) {
	var resp Counters
	if err := cli.CallCtx(ctx, addr, MethodStats, &Ack{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ListChunks fetches one provider's inventory of one blob.
func ListChunks(ctx context.Context, cli *rpc.Client, addr string, blob uint64) (*ListChunksResp, error) {
	var resp ListChunksResp
	if err := cli.CallCtx(ctx, addr, MethodListChunks, &ListChunksReq{Blob: blob}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DeleteChunks removes chunks from one provider, reporting what was
// reclaimed there.
func DeleteChunks(ctx context.Context, cli *rpc.Client, addr string, keys []chunk.Key) (*DeleteChunksResp, error) {
	var resp DeleteChunksResp
	if err := cli.CallCtx(ctx, addr, MethodDeleteChunks, &DeleteChunksReq{Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Tombstone marks blobs deleted on one provider: subsequent puts for them
// are rejected.
func Tombstone(ctx context.Context, cli *rpc.Client, addr string, blobs []uint64) error {
	return cli.CallCtx(ctx, addr, MethodTombstones, &TombstonesReq{Blobs: blobs}, &Ack{})
}
