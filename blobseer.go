// Package blobseer is the public API of the BlobSeer reproduction: a
// versioning-based distributed storage service for huge binary objects
// (Nicolae, Antoniu, Bougé — IPDPS 2010).
//
// A blob is a long sequence of bytes striped into fixed-size chunks over
// data providers. Every Write or Append produces a new immutable snapshot
// version (only the difference is stored); readers address any published
// version and never synchronize with writers. Metadata is a distributed
// segment tree spread over a DHT of metadata providers; a lightweight
// version manager totally orders snapshot publication, which makes all
// operations linearizable.
//
// Quick start (in-process deployment):
//
//	c, _ := blobseer.Deploy(blobseer.DeployOptions{DataProviders: 4})
//	defer c.Close()
//	client, _ := c.NewClient(blobseer.ClientOptions{})
//	blob, _ := client.CreateBlob(64<<10, 1)
//	v, _ := blob.Write([]byte("hello"), 0)
//	buf := make([]byte, 5)
//	blob.Read(v, buf, 0)
//
// For multi-process deployments run cmd/blobseerd for each role over TCP
// and connect with NewClient.
//
// # Version retention and the maintenance plane
//
// Snapshots are immutable but not eternal. Each blob carries a retention
// policy — keep-all (the default) or keep-last-N (Blob.SetRetention) — and
// an explicit Blob.Prune(upTo) makes versions 1..upTo reclaimable at once.
// Both raise the blob's retention floor at the version manager: reads of
// versions below the floor fail immediately with ErrVersionReclaimed (the
// newest published version can never be pruned). Client.DeleteBlob removes
// a blob outright; subsequent operations fail with ErrBlobDeleted.
//
// Raising the floor reclaims no space by itself, and replication only
// survives churn if something restores it. Both are the job of the
// maintenance engine (internal/maint), which runs three actions over one
// shared view of the deployment — the harness's background loop when
// DeployOptions.GCInterval / RepairInterval / ScrubInterval are set,
// Cluster.Maint.Run on demand, or `blobseerd -role maint` /
// `blobseer-cli maint <action>` against a daemon deployment:
//
//   - reclaim walks the metadata trees to compute liveness — persistent
//     trees share untouched subtrees across versions, so a pruned
//     version's node or chunk is dead only when no retained snapshot
//     still references it — then deletes dead tree nodes from the
//     metadata providers and dead chunks from the data providers, and
//     sweeps orphan chunks left by aborted writes once they outlive a
//     grace period. Reclamation totals are reported through
//     Client.GCStats.
//   - replicate scans every retained snapshot's placement on that same
//     walk, re-replicates chunks whose replicas sit on dead or
//     quarantined copies (batched getchunks/putchunks — RPC count tracks
//     providers, not chunks), patches the affected leaf descriptors in
//     place so reads stop probing dead addresses, and migrates replicas
//     off providers above a fullness watermark (capacity declared via
//     heartbeats). Stale client caches self-correct: a read whose every
//     listed replica fails refreshes the leaf and retries against the
//     patched placement.
//   - verify has every provider re-check its chunks against their
//     recorded digests at a bounded byte rate; what it quarantines is
//     healed by the same pass.
//
// Readers racing a prune are safe: a read either returns the version's
// exact bytes or fails whole with ErrVersionReclaimed — never torn data.
//
// # Durability and crash recovery
//
// With DeployOptions.DataDir set (or blobseerd's -dir per role), the
// version manager journals every state transition and metadata providers
// persist their node stores through a write-ahead log (internal/durable):
// a kill -9 loses nothing acknowledged, and a restart — in place via
// Cluster.RestartVM / Cluster.RestartMeta, or by respawning the daemon on
// the same directory — replays the full state. Writes that were in flight
// at crash time are conservatively aborted during recovery, so the
// publish frontier never wedges; their writers observe a commit failure
// and simply retry.
package blobseer

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rpc"
)

// Core client API, re-exported.
type (
	// Client talks to one BlobSeer deployment.
	Client = core.Client
	// Blob is a handle on one blob.
	Blob = core.Blob
	// Config wires a Client to a deployment (see core.Config).
	Config = core.Config
	// ChunkLocation reports where a chunk lives (locality scheduling).
	ChunkLocation = core.ChunkLocation
)

// Deployment helpers, re-exported from the cluster harness.
type (
	// Cluster is a running deployment (in-process or TCP loopback).
	Cluster = cluster.Cluster
	// DeployOptions size a deployment.
	DeployOptions = cluster.Config
	// ClientOptions tune clients created from a Cluster.
	ClientOptions = cluster.ClientOptions
	// FabricConfig shapes the simulated network of a deployment.
	FabricConfig = netsim.Config
)

// GCStats reports deployment-wide reclamation totals (Client.GCStats).
type GCStats = core.GCStats

// Errors re-exported from the client library.
var (
	// ErrNotPublished marks reads of versions that are not yet readable.
	ErrNotPublished = core.ErrNotPublished
	// ErrFailedVersion marks explicit reads of aborted versions.
	ErrFailedVersion = core.ErrFailedVersion
	// ErrVersionReclaimed marks reads of versions below the retention
	// floor: the snapshot has been (or is being) garbage collected.
	ErrVersionReclaimed = core.ErrVersionReclaimed
	// ErrBlobDeleted marks operations on deleted blobs.
	ErrBlobDeleted = core.ErrBlobDeleted
)

// NewClient connects to an existing deployment (for example one started
// with cmd/blobseerd over TCP).
func NewClient(cfg Config) (*Client, error) { return core.NewClient(cfg) }

// Deploy starts a complete deployment in this process: a version manager,
// a provider manager, data providers and metadata providers, over the
// simulated fabric (default) or TCP loopback (opts.UseTCP).
func Deploy(opts DeployOptions) (*Cluster, error) { return cluster.Start(opts) }

// NewFabric builds a simulated network fabric for Deploy, modeling
// per-NIC bandwidth, latency and per-message service cost.
func NewFabric(cfg FabricConfig) *netsim.Fabric { return netsim.NewFabric(cfg) }

// NewTCPNetwork returns the TCP transport for NewClient configs that
// connect to daemon deployments.
func NewTCPNetwork() rpc.Network { return rpc.NewTCPNetwork() }
