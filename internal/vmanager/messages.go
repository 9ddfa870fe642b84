package vmanager

import (
	"repro/internal/meta"
	"repro/internal/wire"
)

// Method names served by the version manager.
const (
	MethodCreate        = "vm.create"
	MethodInfo          = "vm.info"
	MethodAssign        = "vm.assign"
	MethodCommit        = "vm.commit"
	MethodAbort         = "vm.abort"
	MethodLatest        = "vm.latest"
	MethodVersionInfo   = "vm.version"
	MethodWaitPublished = "vm.wait"
	MethodList          = "vm.list"
	MethodSetRetention  = "vm.retention"
	MethodPrune         = "vm.prune"
	MethodDelete        = "vm.delete"
	MethodGCWork        = "vm.gcwork"
	MethodGCStatus      = "vm.gcstatus"
	MethodGCReport      = "vm.gcreport"
	MethodCompact       = "vm.compact"
	MethodMaintReport   = "vm.maintreport"
	MethodMaintStats    = "vm.maintstats"
	MethodRenewLease    = "vm.renew"
	MethodLeaseStats    = "vm.leasestats"
	MethodUnwoven       = "vm.unwoven"
	MethodMarkWoven     = "vm.markwoven"
)

// CreateReq registers a new blob.
type CreateReq struct {
	ChunkSize   uint64
	Replication uint32
}

// Encode implements wire.Message.
func (r *CreateReq) Encode(e *wire.Encoder) {
	e.PutU64(r.ChunkSize)
	e.PutU32(r.Replication)
}

// Decode implements wire.Message.
func (r *CreateReq) Decode(d *wire.Decoder) {
	r.ChunkSize = d.U64()
	r.Replication = d.U32()
}

// CreateResp returns the new blob's identifier.
type CreateResp struct {
	BlobID uint64
}

// Encode implements wire.Message.
func (r *CreateResp) Encode(e *wire.Encoder) { e.PutU64(r.BlobID) }

// Decode implements wire.Message.
func (r *CreateResp) Decode(d *wire.Decoder) { r.BlobID = d.U64() }

// BlobRef names a blob.
type BlobRef struct {
	BlobID uint64
}

// Encode implements wire.Message.
func (r *BlobRef) Encode(e *wire.Encoder) { e.PutU64(r.BlobID) }

// Decode implements wire.Message.
func (r *BlobRef) Decode(d *wire.Decoder) { r.BlobID = d.U64() }

// InfoResp describes a blob's static parameters, published state, and
// retention state.
type InfoResp struct {
	ChunkSize   uint64
	Replication uint32
	Published   uint64
	SizeBytes   uint64
	SizeChunks  uint64
	// KeepLast is the retention policy (0 = keep all versions).
	KeepLast uint64
	// RetainFrom is the retention floor: the oldest readable version.
	RetainFrom uint64
}

// Encode implements wire.Message.
func (r *InfoResp) Encode(e *wire.Encoder) {
	e.PutU64(r.ChunkSize)
	e.PutU32(r.Replication)
	e.PutU64(r.Published)
	e.PutU64(r.SizeBytes)
	e.PutU64(r.SizeChunks)
	e.PutU64(r.KeepLast)
	e.PutU64(r.RetainFrom)
}

// Decode implements wire.Message.
func (r *InfoResp) Decode(d *wire.Decoder) {
	r.ChunkSize = d.U64()
	r.Replication = d.U32()
	r.Published = d.U64()
	r.SizeBytes = d.U64()
	r.SizeChunks = d.U64()
	r.KeepLast = d.U64()
	r.RetainFrom = d.U64()
}

// AssignReq asks for a version number for a write or append.
type AssignReq struct {
	BlobID uint64
	Offset uint64 // byte offset; ignored when Append
	Size   uint64 // byte length; must be > 0
	Append bool
	// WantLeaseTTLMs asks for a per-version write-lease TTL (0 = the
	// server default). A bulk writer sizes it to its upload so it is not
	// stuck heartbeating a fast-appender TTL; the server clamps the
	// grant, and the granted value comes back in AssignResp.LeaseTTLMs.
	WantLeaseTTLMs uint64
}

// Encode implements wire.Message.
func (r *AssignReq) Encode(e *wire.Encoder) {
	e.PutU64(r.BlobID)
	e.PutU64(r.Offset)
	e.PutU64(r.Size)
	e.PutBool(r.Append)
	e.PutU64(r.WantLeaseTTLMs)
}

// Decode implements wire.Message.
func (r *AssignReq) Decode(d *wire.Decoder) {
	r.BlobID = d.U64()
	r.Offset = d.U64()
	r.Size = d.U64()
	r.Append = d.Bool()
	r.WantLeaseTTLMs = d.U64()
}

// AssignResp carries everything the writer needs to upload chunks and
// weave metadata without further coordination.
type AssignResp struct {
	Version       uint64
	Offset        uint64 // actual byte offset (appends get the blob end)
	PrevSizeBytes uint64 // assigned blob size before this write
	SizeBytes     uint64 // assigned blob size after this write
	SizeChunks    uint64
	StartChunk    uint64
	EndChunk      uint64
	PubVersion    uint64
	PubSizeChunks uint64
	// LeaseTTLMs is the write lease granted with this version (0 = leases
	// disabled). The writer must renew within this period or the version
	// manager aborts the version and weaves it away.
	LeaseTTLMs uint64
	InFlight   []meta.WriteDesc
}

// Encode implements wire.Message.
func (r *AssignResp) Encode(e *wire.Encoder) {
	e.PutU64(r.Version)
	e.PutU64(r.Offset)
	e.PutU64(r.PrevSizeBytes)
	e.PutU64(r.SizeBytes)
	e.PutU64(r.SizeChunks)
	e.PutU64(r.StartChunk)
	e.PutU64(r.EndChunk)
	e.PutU64(r.PubVersion)
	e.PutU64(r.PubSizeChunks)
	e.PutU64(r.LeaseTTLMs)
	e.PutU32(uint32(len(r.InFlight)))
	for i := range r.InFlight {
		r.InFlight[i].Encode(e)
	}
}

// Decode implements wire.Message.
func (r *AssignResp) Decode(d *wire.Decoder) {
	r.Version = d.U64()
	r.Offset = d.U64()
	r.PrevSizeBytes = d.U64()
	r.SizeBytes = d.U64()
	r.SizeChunks = d.U64()
	r.StartChunk = d.U64()
	r.EndChunk = d.U64()
	r.PubVersion = d.U64()
	r.PubSizeChunks = d.U64()
	r.LeaseTTLMs = d.U64()
	cnt := d.U32()
	r.InFlight = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var w meta.WriteDesc
		w.Decode(d)
		r.InFlight = append(r.InFlight, w)
	}
}

// VersionRef names one version of one blob.
type VersionRef struct {
	BlobID  uint64
	Version uint64
}

// Encode implements wire.Message.
func (r *VersionRef) Encode(e *wire.Encoder) {
	e.PutU64(r.BlobID)
	e.PutU64(r.Version)
}

// Decode implements wire.Message.
func (r *VersionRef) Decode(d *wire.Decoder) {
	r.BlobID = d.U64()
	r.Version = d.U64()
}

// AbortReq names the version to abort and whether the aborting client
// already wove its identity tree (abort-repair completed); Woven=false
// leaves the weave as server-side debt for the GC sweep.
type AbortReq struct {
	BlobID  uint64
	Version uint64
	Woven   bool
}

// Encode implements wire.Message.
func (r *AbortReq) Encode(e *wire.Encoder) {
	e.PutU64(r.BlobID)
	e.PutU64(r.Version)
	e.PutBool(r.Woven)
}

// Decode implements wire.Message.
func (r *AbortReq) Decode(d *wire.Decoder) {
	r.BlobID = d.U64()
	r.Version = d.U64()
	r.Woven = d.Bool()
}

// LeaseStatsResp reports the lease configuration and counters.
type LeaseStatsResp struct {
	TTLMs   uint64 // configured lease TTL (0 = leases disabled)
	Active  uint64 // unfinished versions currently holding a lease
	Granted uint64
	Renewed uint64
	Expired uint64
}

// Encode implements wire.Message.
func (r *LeaseStatsResp) Encode(e *wire.Encoder) {
	e.PutU64(r.TTLMs)
	e.PutU64(r.Active)
	e.PutU64(r.Granted)
	e.PutU64(r.Renewed)
	e.PutU64(r.Expired)
}

// Decode implements wire.Message.
func (r *LeaseStatsResp) Decode(d *wire.Decoder) {
	r.TTLMs = d.U64()
	r.Active = d.U64()
	r.Granted = d.U64()
	r.Renewed = d.U64()
	r.Expired = d.U64()
}

// UnwovenResp lists aborted versions still owed an identity weave; the GC
// sweeper repairs each and acknowledges with MethodMarkWoven.
type UnwovenResp struct {
	Items []meta.IdentityInput
}

// Encode implements wire.Message.
func (r *UnwovenResp) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.Items)))
	for i := range r.Items {
		r.Items[i].Encode(e)
	}
}

// Decode implements wire.Message.
func (r *UnwovenResp) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.Items = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var it meta.IdentityInput
		it.Decode(d)
		r.Items = append(r.Items, it)
	}
}

// VersionInfoResp describes one version's extent.
type VersionInfoResp struct {
	SizeBytes  uint64
	SizeChunks uint64
	Published  bool
	Failed     bool
	// Reclaimed marks a version below the retention floor: its data and
	// metadata may be gone and reads must be refused.
	Reclaimed bool
}

// Encode implements wire.Message.
func (r *VersionInfoResp) Encode(e *wire.Encoder) {
	e.PutU64(r.SizeBytes)
	e.PutU64(r.SizeChunks)
	e.PutBool(r.Published)
	e.PutBool(r.Failed)
	e.PutBool(r.Reclaimed)
}

// Decode implements wire.Message.
func (r *VersionInfoResp) Decode(d *wire.Decoder) {
	r.SizeBytes = d.U64()
	r.SizeChunks = d.U64()
	r.Published = d.Bool()
	r.Failed = d.Bool()
	r.Reclaimed = d.Bool()
}

// LatestResp identifies the latest published snapshot.
type LatestResp struct {
	Version    uint64
	SizeBytes  uint64
	SizeChunks uint64
}

// Encode implements wire.Message.
func (r *LatestResp) Encode(e *wire.Encoder) {
	e.PutU64(r.Version)
	e.PutU64(r.SizeBytes)
	e.PutU64(r.SizeChunks)
}

// Decode implements wire.Message.
func (r *LatestResp) Decode(d *wire.Decoder) {
	r.Version = d.U64()
	r.SizeBytes = d.U64()
	r.SizeChunks = d.U64()
}

// ListResp enumerates existing blob IDs.
type ListResp struct {
	IDs []uint64
}

// Encode implements wire.Message.
func (r *ListResp) Encode(e *wire.Encoder) {
	e.PutU32(uint32(len(r.IDs)))
	for _, id := range r.IDs {
		e.PutU64(id)
	}
}

// Decode implements wire.Message.
func (r *ListResp) Decode(d *wire.Decoder) {
	cnt := d.U32()
	r.IDs = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		r.IDs = append(r.IDs, d.U64())
	}
}

// RetentionReq installs a keep-last-N retention policy on a blob.
type RetentionReq struct {
	BlobID   uint64
	KeepLast uint64 // 0 = keep all versions
}

// Encode implements wire.Message.
func (r *RetentionReq) Encode(e *wire.Encoder) {
	e.PutU64(r.BlobID)
	e.PutU64(r.KeepLast)
}

// Decode implements wire.Message.
func (r *RetentionReq) Decode(d *wire.Decoder) {
	r.BlobID = d.U64()
	r.KeepLast = d.U64()
}

// PruneReq makes versions 1..UpTo of a blob reclaimable.
type PruneReq struct {
	BlobID uint64
	UpTo   uint64
}

// Encode implements wire.Message.
func (r *PruneReq) Encode(e *wire.Encoder) {
	e.PutU64(r.BlobID)
	e.PutU64(r.UpTo)
}

// Decode implements wire.Message.
func (r *PruneReq) Decode(d *wire.Decoder) {
	r.BlobID = d.U64()
	r.UpTo = d.U64()
}

// PruneResp returns the blob's retention floor after a prune.
type PruneResp struct {
	RetainFrom uint64
}

// Encode implements wire.Message.
func (r *PruneResp) Encode(e *wire.Encoder) { e.PutU64(r.RetainFrom) }

// Decode implements wire.Message.
func (r *PruneResp) Decode(d *wire.Decoder) { r.RetainFrom = d.U64() }

// GCStatusResp describes one blob's reclamation state for a GC sweeper.
type GCStatusResp struct {
	Deleted     bool
	RetainFrom  uint64
	ReclaimedTo uint64
	Published   uint64
	Assigned    uint64
	ChunkSize   uint64
	Replication uint32
	// FinishGen is the blob's commit/abort counter at status time; echo
	// it in GCReport when marking a deleted blob swept.
	FinishGen uint64
	// Versions describes every version in [ReclaimedTo, Published]: the
	// pruned range plus every retained version anchoring the liveness
	// union walk.
	Versions []meta.WriteDesc
}

// Encode implements wire.Message.
func (r *GCStatusResp) Encode(e *wire.Encoder) {
	e.PutBool(r.Deleted)
	e.PutU64(r.RetainFrom)
	e.PutU64(r.ReclaimedTo)
	e.PutU64(r.Published)
	e.PutU64(r.Assigned)
	e.PutU64(r.ChunkSize)
	e.PutU32(r.Replication)
	e.PutU64(r.FinishGen)
	e.PutU32(uint32(len(r.Versions)))
	for i := range r.Versions {
		r.Versions[i].Encode(e)
	}
}

// Decode implements wire.Message.
func (r *GCStatusResp) Decode(d *wire.Decoder) {
	r.Deleted = d.Bool()
	r.RetainFrom = d.U64()
	r.ReclaimedTo = d.U64()
	r.Published = d.U64()
	r.Assigned = d.U64()
	r.ChunkSize = d.U64()
	r.Replication = d.U32()
	r.FinishGen = d.U64()
	cnt := d.U32()
	r.Versions = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var w meta.WriteDesc
		w.Decode(d)
		r.Versions = append(r.Versions, w)
	}
}

// GCReportReq records a completed sweep for one blob.
type GCReportReq struct {
	BlobID uint64
	// ReclaimedTo is the new sweep frontier (versions below it are gone).
	ReclaimedTo uint64
	// DeletedSwept marks a deleted blob as fully dropped; FinishGen must
	// echo the GCStatus snapshot the sweep was based on, or the latch is
	// refused and the blob re-sweeps.
	DeletedSwept bool
	FinishGen    uint64
	// Chunks/Bytes/Nodes/Orphans count what this sweep reclaimed.
	Chunks  uint64
	Bytes   uint64
	Nodes   uint64
	Orphans uint64
}

// Encode implements wire.Message.
func (r *GCReportReq) Encode(e *wire.Encoder) {
	e.PutU64(r.BlobID)
	e.PutU64(r.ReclaimedTo)
	e.PutBool(r.DeletedSwept)
	e.PutU64(r.FinishGen)
	e.PutU64(r.Chunks)
	e.PutU64(r.Bytes)
	e.PutU64(r.Nodes)
	e.PutU64(r.Orphans)
}

// Decode implements wire.Message.
func (r *GCReportReq) Decode(d *wire.Decoder) {
	r.BlobID = d.U64()
	r.ReclaimedTo = d.U64()
	r.DeletedSwept = d.Bool()
	r.FinishGen = d.U64()
	r.Chunks = d.U64()
	r.Bytes = d.U64()
	r.Nodes = d.U64()
	r.Orphans = d.U64()
}

// Counter names one maintenance-plane counter. The ids index Counters and
// CounterTable, and their order is the wire order of vm.maintreport and
// vm.maintstats, so new counters are appended, never inserted.
type Counter uint8

// The maintenance counters, grouped by plane: gc (the reclaim action),
// repair (replicate) and scrub (verify).
const (
	GCChunks Counter = iota
	GCBytes
	GCNodes
	GCOrphans
	GCPruned
	GCPending
	GCWoven
	RepairPasses
	RepairScanned
	RepairUnderReplicated
	RepairReReplicated
	RepairMigrated
	RepairBytesMoved
	RepairLeavesPatched
	RepairLost
	RepairCorruptPurged
	RepairErrors
	ScrubPasses
	ScrubScanned
	ScrubBytes
	ScrubCorruptFound
	ScrubBackfilled
	ScrubErrors
	NumCounters
)

// journaledCounters is how many leading counters (GCChunks..GCPruned) are
// fed only by the journaled vm.gcreport and persisted in snapshots, in id
// order. ownedCounters additionally covers GCPending, which the manager
// computes at read time. vm.maintreport never touches either group: an
// unjournaled delta to a journaled total would make RAM diverge from
// replay (and a leader's state digest from its standbys').
const (
	journaledCounters = GCPruned + 1
	ownedCounters     = GCPending + 1
)

// CounterDef describes one counter: Plane groups it ("gc", "repair" or
// "scrub"), Name labels it in CLI output, and Metric is the family suffix
// after blobseer_<plane>_ ("" = not exported; a suffix without _total is a
// gauge) with Help as its help string (and the counter's documentation).
type CounterDef struct {
	Plane, Name, Metric, Help string
}

// CounterTable is the one place a maintenance counter is declared; the
// wire codec, the manager's totals, the /metrics families and the CLI
// output all range over it.
var CounterTable = [NumCounters]CounterDef{
	GCChunks:  {"gc", "chunks", "reclaimed_chunks_total", "Chunk replicas reclaimed by GC sweeps."},
	GCBytes:   {"gc", "bytes", "reclaimed_bytes_total", "Payload bytes reclaimed by GC sweeps."},
	GCNodes:   {"gc", "nodes", "reclaimed_nodes_total", "Metadata tree nodes reclaimed by GC sweeps."},
	GCOrphans: {"gc", "orphans", "reclaimed_orphans_total", "Aborted-write orphan chunks reclaimed by GC sweeps."},
	GCPruned:  {"gc", "pruned-versions", "pruned_versions_total", "Blob versions fully reclaimed (pruned past the retention floor)."},
	GCPending: {"gc", "pending-blobs", "pending_blobs", "Blobs with reclamation work outstanding."},
	GCWoven:   {"gc", "woven", "", "Aborted versions whose missing identity trees a sweep rebuilt (repair, not reclamation)."},

	RepairPasses:          {"repair", "passes", "passes_total", "Completed self-healing repair passes (all engines reporting here)."},
	RepairScanned:         {"repair", "scanned", "chunks_scanned_total", "Live-chunk placement records examined by repair passes."},
	RepairUnderReplicated: {"repair", "under-replicated", "", "Chunks found with a dead or corrupt replica, or short of their replication degree."},
	RepairReReplicated:    {"repair", "re-replicated", "rereplicated_total", "Replica copies recreated on fresh providers."},
	RepairMigrated:        {"repair", "migrated", "migrated_total", "Chunks moved off overfull providers by the rebalancer."},
	RepairBytesMoved:      {"repair", "bytes-moved", "bytes_moved_total", "Payload bytes copied by re-replication and rebalance."},
	RepairLeavesPatched:   {"repair", "leaves-patched", "leaves_patched_total", "Metadata leaf descriptors rewritten to new placements."},
	RepairLost:            {"repair", "lost", "lost_chunks", "Chunks with no surviving replica (unrecoverable until a provider returns)."},
	RepairCorruptPurged:   {"repair", "corrupt-purged", "corrupt_purged_total", "Quarantined corrupt replicas deleted after a verified copy replaced them."},
	RepairErrors:          {"repair", "errors", "errors_total", "Per-blob repair failures (retried next pass)."},

	ScrubPasses:       {"scrub", "passes", "passes_total", "Completed scrub passes (all engines reporting here)."},
	ScrubScanned:      {"scrub", "scanned", "chunks_scanned_total", "Chunk replicas verified against their digests by scrub passes."},
	ScrubBytes:        {"scrub", "bytes", "bytes_scanned_total", "Payload bytes read back and verified by scrub passes."},
	ScrubCorruptFound: {"scrub", "corrupt", "corrupt_found_total", "Replicas that failed verification during a scrub (quarantined for repair)."},
	ScrubBackfilled:   {"scrub", "backfilled", "backfilled_total", "Legacy digestless chunks whose digest was minted by a scrub."},
	ScrubErrors:       {"scrub", "errors", "errors_total", "Per-provider scrub failures (retried next pass)."},
}

// Counters is one value per maintenance counter. It is a pass's delta,
// the vm.maintreport payload, an engine's lifetime totals and the
// vm.maintstats response alike. The version manager is the aggregation
// point — passes may run from the cluster harness, a maint daemon or the
// CLI, and `blobseer-cli maint-stats` must see them all — but apart from
// the journaled GC totals the counters are pure observability.
type Counters [NumCounters]uint64

// Add folds o into c.
func (c *Counters) Add(o *Counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// Encode implements wire.Message.
func (c *Counters) Encode(e *wire.Encoder) {
	for _, v := range c {
		e.PutU64(v)
	}
}

// Decode implements wire.Message.
func (c *Counters) Decode(d *wire.Decoder) {
	for i := range c {
		c[i] = d.U64()
	}
}

// CompactResp reports the outcome of a journal snapshot + compaction.
type CompactResp struct {
	// CompactedVersions counts verInfo history entries folded into base
	// offsets (and released from RAM) by this compaction.
	CompactedVersions uint64
	// Persistent is false when the version manager runs volatile (no
	// journal directory configured), making compaction a no-op.
	Persistent bool
}

// Encode implements wire.Message.
func (r *CompactResp) Encode(e *wire.Encoder) {
	e.PutU64(r.CompactedVersions)
	e.PutBool(r.Persistent)
}

// Decode implements wire.Message.
func (r *CompactResp) Decode(d *wire.Decoder) {
	r.CompactedVersions = d.U64()
	r.Persistent = d.Bool()
}

// Ack is the empty acknowledgment.
type Ack = meta.Ack
