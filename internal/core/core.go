// Package core implements the BlobSeer client library: the versioning
// access interface of §I-B1. A client manipulates a blob through CreateBlob
// / OpenBlob and then Read / Write / Append. Every Write or Append
// generates a new snapshot version — only the difference is physically
// stored — and Read can address any published version.
//
// Protocol (matching the paper's ordering):
//
//	Write:  upload chunks to data providers (placement from the provider
//	        manager) → Assign at the version manager → weave + store
//	        metadata tree nodes → Commit.
//	Append: Assign first (the offset is only known then), then as Write.
//	Read:   resolve version at the version manager → descend the metadata
//	        tree → fetch chunks from data providers in parallel: whole
//	        chunks in one getchunks per replica set and 1 MiB, partial
//	        chunks with a ranged get each.
//
// Writers never read other writers' unpublished state; readers never
// block on writers. The version manager is the only serialization point.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/pmanager"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/vmanager"
)

// Errors reported by the client library.
var (
	ErrNotPublished  = errors.New("core: version not yet published")
	ErrFailedVersion = errors.New("core: version was aborted by its writer")
	// ErrLeaseExpired marks a write whose lease lapsed before Commit: the
	// version manager aborted (and wove away) the version, so nothing was
	// published and the write must be retried from scratch.
	ErrLeaseExpired = errors.New("core: write lease expired before commit")
)

// Config wires a client to a deployment.
type Config struct {
	// Network is the transport everything runs over.
	Network rpc.Network
	// ClientName, when set, attributes this client's traffic to a named
	// simulated machine (one NIC per client on the fabric).
	ClientName string
	// VMAddr and PMAddr locate the version manager and provider manager.
	VMAddr string
	PMAddr string
	// VMAddrs lists every member of a replicated version-manager group
	// (leader plus standbys, any order). When set it supersedes VMAddr:
	// the client follows leadership redirects and rides out failovers by
	// re-resolving the leader with vm.whoisleader. Single-node deployments
	// leave it empty and keep the zero-overhead VMAddr path.
	VMAddrs []string
	// MetaProviders lists the metadata DHT members.
	MetaProviders []string
	// MetaReplication is the metadata replica count (default 1).
	MetaReplication int
	// MetaCacheNodes enables the client-side metadata cache when > 0.
	MetaCacheNodes int
	// CallTimeout bounds each RPC (default 30s).
	CallTimeout time.Duration
	// FullnessWatermark is the provider fullness (used/capacity) above
	// which retried chunk placements exclude a provider (default 0.85).
	// Deployments tune it together with the repair engine's HighWater so
	// the write plane stops targeting disks the rebalancer is draining.
	// Must be in (0, 1]; zero means "use the default".
	FullnessWatermark float64
	// Tracer, when set, records a span per client operation (core.read /
	// core.write / core.append) — a child of the span on the context
	// handed to ReadCtx / WriteCtx / AppendCtx, else a root — and
	// propagates it through every RPC the operation issues, so sampled
	// operations reconstruct as cross-role waterfalls. Nil disables
	// client-side spans; the RPCs still join a trace the caller's context
	// carries.
	Tracer *trace.Tracer
}

// Client talks to one BlobSeer deployment. It is safe for concurrent use;
// typical experiments run many goroutines over one Client or many Clients
// over one network.
type Client struct {
	cfg    Config
	rpc    *rpc.Client
	vm     *vmanager.Caller
	meta   *meta.Client
	sem    chan struct{}
	health *providerHealth

	// Data-plane accounting: chunk RPCs issued and payload bytes moved.
	// Together with meta.Client.RPCStats these make the cost model of a
	// read/write observable (and testable) instead of inferred.
	chunkGets       metrics.Counter
	chunkPuts       metrics.Counter
	chunkPutBatches metrics.Counter
	chunkBytesIn    metrics.Counter
	chunkBytesOut   metrics.Counter
	chunkCorrupt    metrics.Counter
}

// IOStats is a snapshot of the client's data-plane traffic.
type IOStats struct {
	ChunkGetRPCs int64 // chunk read RPCs (get and getchunks), including failed replicas
	// ChunkPutOps counts per-chunk-per-replica store operations
	// (including failed ones); ChunkPutRPCs counts the provider.putchunks
	// round trips that carried them. Ops/RPCs is the write-plane
	// coalescing factor: a W-chunk write at replication R is W×R ops in
	// at most ~providers RPCs.
	ChunkPutOps   int64
	ChunkPutRPCs  int64
	ChunkBytesIn  int64 // payload bytes received from providers
	ChunkBytesOut int64 // payload bytes sent to providers
	// ChunkCorruptReads counts replica reads rejected by the end-to-end
	// digest check (each one failed over to another replica).
	ChunkCorruptReads int64
}

// IOStats reports cumulative chunk-transfer counts for this client.
func (c *Client) IOStats() IOStats {
	return IOStats{
		ChunkGetRPCs:      c.chunkGets.Load(),
		ChunkPutOps:       c.chunkPuts.Load(),
		ChunkPutRPCs:      c.chunkPutBatches.Load(),
		ChunkBytesIn:      c.chunkBytesIn.Load(),
		ChunkBytesOut:     c.chunkBytesOut.Load(),
		ChunkCorruptReads: c.chunkCorrupt.Load(),
	}
}

// MetaRPCStats reports cumulative metadata-plane RPC counts for this
// client.
func (c *Client) MetaRPCStats() meta.RPCStats { return c.meta.RPCStats() }

// NewClient validates cfg and builds a client.
func NewClient(cfg Config) (*Client, error) {
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	if (cfg.VMAddr == "" && len(cfg.VMAddrs) == 0) || cfg.PMAddr == "" {
		return nil, errors.New("core: version manager and provider manager addresses are required")
	}
	if len(cfg.MetaProviders) == 0 {
		return nil, errors.New("core: at least one metadata provider is required")
	}
	if cfg.MetaReplication < 1 {
		cfg.MetaReplication = 1
	}
	if cfg.FullnessWatermark == 0 {
		cfg.FullnessWatermark = defaultFullnessWatermark
	}
	if cfg.FullnessWatermark < 0 || cfg.FullnessWatermark > 1 {
		return nil, fmt.Errorf("core: Config.FullnessWatermark %v out of range (0, 1]", cfg.FullnessWatermark)
	}
	rpcCli := rpc.NewClientFrom(cfg.Network, cfg.CallTimeout, cfg.ClientName)
	if cfg.Tracer != nil {
		rpcCli.SetTracer(cfg.Tracer)
	}
	vmAddrs := cfg.VMAddrs
	if len(vmAddrs) == 0 {
		vmAddrs = []string{cfg.VMAddr}
	}
	return &Client{
		cfg:    cfg,
		rpc:    rpcCli,
		vm:     vmanager.NewCaller(rpcCli, vmAddrs),
		meta:   meta.NewClient(rpcCli, cfg.MetaProviders, cfg.MetaReplication, cfg.MetaCacheNodes),
		sem:    make(chan struct{}, parallelIO),
		health: newProviderHealth(),
	}, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.rpc.Close() }

// RPC exposes the client's connection cache so tools layered on the
// client can share it.
func (c *Client) RPC() *rpc.Client { return c.rpc }

// Blob is a handle on one blob.
type Blob struct {
	c           *Client
	id          uint64
	chunkSize   uint64
	replication uint32
}

// CreateBlob registers a new blob with the given chunk size (bytes) and
// data replication degree.
func (c *Client) CreateBlob(chunkSize uint64, replication uint32) (*Blob, error) {
	var resp vmanager.CreateResp
	err := c.vm.Call(context.Background(), vmanager.MethodCreate,
		&vmanager.CreateReq{ChunkSize: chunkSize, Replication: replication}, &resp)
	if err != nil {
		return nil, fmt.Errorf("core: create blob: %w", err)
	}
	if replication == 0 {
		replication = 1
	}
	return &Blob{c: c, id: resp.BlobID, chunkSize: chunkSize, replication: replication}, nil
}

// OpenBlob opens an existing blob by ID.
func (c *Client) OpenBlob(id uint64) (*Blob, error) {
	var info vmanager.InfoResp
	err := c.vm.Call(context.Background(), vmanager.MethodInfo, &vmanager.BlobRef{BlobID: id}, &info)
	if err != nil {
		return nil, fmt.Errorf("core: open blob %d: %w", id, mapVMError(err))
	}
	return &Blob{c: c, id: id, chunkSize: info.ChunkSize, replication: info.Replication}, nil
}

// ListBlobs enumerates all blob IDs known to the version manager.
func (c *Client) ListBlobs() ([]uint64, error) {
	var resp vmanager.ListResp
	if err := c.vm.Call(context.Background(), vmanager.MethodList, &vmanager.Ack{}, &resp); err != nil {
		return nil, fmt.Errorf("core: list blobs: %w", err)
	}
	return resp.IDs, nil
}

// ID returns the blob's identifier.
func (b *Blob) ID() uint64 { return b.id }

// ChunkSize returns the blob's chunk size in bytes.
func (b *Blob) ChunkSize() uint64 { return b.chunkSize }

// Replication returns the blob's data replication degree.
func (b *Blob) Replication() uint32 { return b.replication }

// Latest returns the newest published version and its size in bytes.
// A blob that was never written reports version 0, size 0.
func (b *Blob) Latest() (version, sizeBytes uint64, err error) {
	return b.latest(context.Background())
}

func (b *Blob) latest(ctx context.Context) (version, sizeBytes uint64, err error) {
	var resp vmanager.LatestResp
	err = b.c.vm.Call(ctx, vmanager.MethodLatest, &vmanager.BlobRef{BlobID: b.id}, &resp)
	if err != nil {
		return 0, 0, fmt.Errorf("core: latest of blob %d: %w", b.id, mapVMError(err))
	}
	return resp.Version, resp.SizeBytes, nil
}

// Size returns the byte size of the given version (0 = latest published).
func (b *Blob) Size(version uint64) (uint64, error) {
	if version == 0 {
		_, size, err := b.Latest()
		return size, err
	}
	vi, err := b.versionInfo(context.Background(), version)
	if err != nil {
		return 0, err
	}
	return vi.SizeBytes, nil
}

func (b *Blob) versionInfo(ctx context.Context, version uint64) (*vmanager.VersionInfoResp, error) {
	var resp vmanager.VersionInfoResp
	err := b.c.vm.Call(ctx, vmanager.MethodVersionInfo,
		&vmanager.VersionRef{BlobID: b.id, Version: version}, &resp)
	if err != nil {
		return nil, fmt.Errorf("core: version %d of blob %d: %w", version, b.id, mapVMError(err))
	}
	return &resp, nil
}

// WaitPublished blocks until version is published. Waiters on a blob that
// gets deleted are woken with ErrBlobDeleted.
func (b *Blob) WaitPublished(version uint64) error {
	return b.waitPublished(context.Background(), version)
}

func (b *Blob) waitPublished(ctx context.Context, version uint64) error {
	err := b.c.vm.Call(ctx, vmanager.MethodWaitPublished,
		&vmanager.VersionRef{BlobID: b.id, Version: version}, &vmanager.Ack{})
	return mapVMError(err)
}

// allocate asks the provider manager for replica sets for n chunks,
// avoiding the excluded providers (retry after a full replica-set
// failure).
func (c *Client) allocate(ctx context.Context, n int, replication uint32, exclude []string) ([][]string, error) {
	if n > pmanager.MaxAllocateChunks {
		return nil, fmt.Errorf("core: allocate %d chunks: %w", n, pmanager.ErrTooManyChunks)
	}
	var resp pmanager.AllocateResp
	err := c.rpc.CallCtx(ctx, c.cfg.PMAddr, pmanager.MethodAllocate,
		&pmanager.AllocateReq{NumChunks: uint32(n), Replication: replication, Exclude: exclude}, &resp)
	if err != nil {
		return nil, fmt.Errorf("core: allocate %d chunks: %w", n, err)
	}
	if len(resp.Sets) != n {
		return nil, fmt.Errorf("core: allocator returned %d sets for %d chunks", len(resp.Sets), n)
	}
	return resp.Sets, nil
}

// defaultFullnessWatermark matches the repair engine's default high-water
// mark: a provider above it is a migration SOURCE, so placing a retried
// chunk there would hand the repair plane immediate rebalance work (and
// risk a second failure if the first was capacity-related). Deployments
// override it via Config.FullnessWatermark.
const defaultFullnessWatermark = 0.85

// fullProviders lists providers above the fullness watermark, from the
// provider manager's report. Best effort: on any error the retry placement
// simply skips the fullness filter (allocation's own starvation safety
// still applies).
func (c *Client) fullProviders(ctx context.Context, watermark float64) []string {
	var resp pmanager.ReportResp
	if err := c.rpc.CallCtx(ctx, c.cfg.PMAddr, pmanager.MethodReport, &pmanager.Ack{}, &resp); err != nil {
		return nil
	}
	var full []string
	for _, p := range resp.Providers {
		if p.CapBytes == 0 {
			continue // capacity unknown: cannot judge fullness
		}
		used := p.CapBytes - p.FreeBytes
		if float64(used) >= watermark*float64(p.CapBytes) {
			full = append(full, p.Addr)
		}
	}
	return full
}

// parallelIO bounds a client's concurrent chunk transfers.
const parallelIO = 16

// parallel runs fn(0..n-1) with at most parallelIO calls in flight across
// the client and returns the first error.
func (c *Client) parallel(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(0)
	}
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for i := 0; i < n; i++ {
		wg.Add(1)
		c.sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-c.sem }()
			if firstErr.Load() != nil {
				return
			}
			if err := fn(i); err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}(i)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// writeIDs generates process-unique identifiers for chunk keys: data is
// uploaded before a version number exists, so chunk identity cannot use
// the version (the paper uploads data first too).
var writeIDBase = rand.Uint64() | 1<<63 // high bit set: never collides with version numbers
var writeIDCounter atomic.Uint64

func nextWriteID() uint64 { return writeIDBase ^ writeIDCounter.Add(1) }
