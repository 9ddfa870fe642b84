package vmanager

import (
	"repro/internal/meta"
	"repro/internal/metrics"
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
	MethodUnwoven       = "vm.unwoven"
	MethodMarkWoven     = "vm.markwoven"
)

// CreateReq registers a new blob.
type CreateReq struct {
	ChunkSize   uint64
	Replication uint32
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *CreateReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *CreateReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *CreateReq) Wire(c *wire.Codec) {
	c.U64(&r.ChunkSize)
	c.U32(&r.Replication)
}

// CreateResp returns the new blob's identifier.
type CreateResp struct {
	BlobID uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *CreateResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *CreateResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *CreateResp) Wire(c *wire.Codec)     { c.U64(&r.BlobID) }

// BlobRef names a blob.
type BlobRef struct {
	BlobID uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *BlobRef) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *BlobRef) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *BlobRef) Wire(c *wire.Codec)     { c.U64(&r.BlobID) }

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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *InfoResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *InfoResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *InfoResp) Wire(c *wire.Codec) {
	c.U64(&r.ChunkSize)
	c.U32(&r.Replication)
	c.U64(&r.Published)
	c.U64(&r.SizeBytes)
	c.U64(&r.SizeChunks)
	c.U64(&r.KeepLast)
	c.U64(&r.RetainFrom)
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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *AssignReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *AssignReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *AssignReq) Wire(c *wire.Codec) {
	c.U64(&r.BlobID)
	c.U64(&r.Offset)
	c.U64(&r.Size)
	c.Bool(&r.Append)
	c.U64(&r.WantLeaseTTLMs)
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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *AssignResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *AssignResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *AssignResp) Wire(c *wire.Codec) {
	c.U64(&r.Version)
	c.U64(&r.Offset)
	c.U64(&r.PrevSizeBytes)
	c.U64(&r.SizeBytes)
	c.U64(&r.SizeChunks)
	c.U64(&r.StartChunk)
	c.U64(&r.EndChunk)
	c.U64(&r.PubVersion)
	c.U64(&r.PubSizeChunks)
	c.U64(&r.LeaseTTLMs)
	wire.Slice(c, &r.InFlight, wire.MaxCount, (*meta.WriteDesc).Wire)
}

// VersionRef names one version of one blob.
type VersionRef struct {
	BlobID  uint64
	Version uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *VersionRef) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *VersionRef) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *VersionRef) Wire(c *wire.Codec) {
	c.U64(&r.BlobID)
	c.U64(&r.Version)
}

// AbortReq names the version to abort and whether the aborting client
// already wove its identity tree (abort-repair completed); Woven=false
// leaves the weave as server-side debt for the GC sweep.
type AbortReq struct {
	BlobID  uint64
	Version uint64
	Woven   bool
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *AbortReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *AbortReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *AbortReq) Wire(c *wire.Codec) {
	c.U64(&r.BlobID)
	c.U64(&r.Version)
	c.Bool(&r.Woven)
}

// UnwovenResp lists aborted versions still owed an identity weave; the GC
// sweeper repairs each and acknowledges with MethodMarkWoven.
type UnwovenResp struct {
	Items []meta.IdentityInput
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *UnwovenResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *UnwovenResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *UnwovenResp) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Items, wire.MaxCount, (*meta.IdentityInput).Wire)
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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *VersionInfoResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *VersionInfoResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *VersionInfoResp) Wire(c *wire.Codec) {
	c.U64(&r.SizeBytes)
	c.U64(&r.SizeChunks)
	c.Bool(&r.Published)
	c.Bool(&r.Failed)
	c.Bool(&r.Reclaimed)
}

// LatestResp identifies the latest published snapshot.
type LatestResp struct {
	Version    uint64
	SizeBytes  uint64
	SizeChunks uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *LatestResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *LatestResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *LatestResp) Wire(c *wire.Codec) {
	c.U64(&r.Version)
	c.U64(&r.SizeBytes)
	c.U64(&r.SizeChunks)
}

// ListResp enumerates existing blob IDs.
type ListResp struct {
	IDs []uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ListResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ListResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ListResp) Wire(c *wire.Codec)     { c.U64s(&r.IDs, wire.MaxCount) }

// RetentionReq installs a keep-last-N retention policy on a blob.
type RetentionReq struct {
	BlobID   uint64
	KeepLast uint64 // 0 = keep all versions
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *RetentionReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *RetentionReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *RetentionReq) Wire(c *wire.Codec) {
	c.U64(&r.BlobID)
	c.U64(&r.KeepLast)
}

// PruneReq makes versions 1..UpTo of a blob reclaimable.
type PruneReq struct {
	BlobID uint64
	UpTo   uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *PruneReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PruneReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PruneReq) Wire(c *wire.Codec) {
	c.U64(&r.BlobID)
	c.U64(&r.UpTo)
}

// PruneResp returns the blob's retention floor after a prune.
type PruneResp struct {
	RetainFrom uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *PruneResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *PruneResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *PruneResp) Wire(c *wire.Codec)     { c.U64(&r.RetainFrom) }

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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *GCStatusResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GCStatusResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GCStatusResp) Wire(c *wire.Codec) {
	c.Bool(&r.Deleted)
	c.U64(&r.RetainFrom)
	c.U64(&r.ReclaimedTo)
	c.U64(&r.Published)
	c.U64(&r.Assigned)
	c.U64(&r.ChunkSize)
	c.U32(&r.Replication)
	c.U64(&r.FinishGen)
	wire.Slice(c, &r.Versions, wire.MaxCount, (*meta.WriteDesc).Wire)
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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *GCReportReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *GCReportReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *GCReportReq) Wire(c *wire.Codec) {
	c.U64(&r.BlobID)
	c.U64(&r.ReclaimedTo)
	c.Bool(&r.DeletedSwept)
	c.U64(&r.FinishGen)
	c.U64(&r.Chunks)
	c.U64(&r.Bytes)
	c.U64(&r.Nodes)
	c.U64(&r.Orphans)
}

// Counter names one version-manager counter. The ids index Counters and
// CounterTable, and their order is the wire order of vm.maintreport and
// vm.maintstats, so new counters are appended, never inserted.
type Counter uint8

// The version manager's counters, grouped by plane: gc (the reclaim
// action), repair (replicate), scrub (verify) and lease (write leases).
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
	LeaseTTLMs
	LeaseActive
	LeaseGranted
	LeaseRenewed
	LeaseExpired
	NumCounters
)

// journaledCounters is how many leading counters (GCChunks..GCPruned) are
// fed only by the journaled vm.gcreport and persisted in snapshots, in id
// order. ownedCounters additionally covers GCPending, which the manager
// computes at read time; the manager also owns the lease plane (see
// owned). vm.maintreport never touches an owned counter: an unjournaled
// delta to a journaled total would make RAM diverge from replay (and a
// leader's state digest from its standbys').
const (
	journaledCounters = GCPruned + 1
	ownedCounters     = GCPending + 1
)

// owned reports whether the manager keeps counter id itself, so that
// maintenance engines never report it.
func (id Counter) owned() bool { return id < ownedCounters || CounterTable[id].Plane == "lease" }

// CounterTable is the one place a version-manager counter is declared;
// the wire codec, the manager's totals, the /metrics families and the CLI
// output all range over it.
var CounterTable = [NumCounters]metrics.CounterDef{
	GCChunks:  {Plane: "gc", Name: "chunks", Metric: "reclaimed_chunks_total", Help: "Chunk replicas reclaimed by GC sweeps."},
	GCBytes:   {Plane: "gc", Name: "bytes", Metric: "reclaimed_bytes_total", Help: "Payload bytes reclaimed by GC sweeps."},
	GCNodes:   {Plane: "gc", Name: "nodes", Metric: "reclaimed_nodes_total", Help: "Metadata tree nodes reclaimed by GC sweeps."},
	GCOrphans: {Plane: "gc", Name: "orphans", Metric: "reclaimed_orphans_total", Help: "Aborted-write orphan chunks reclaimed by GC sweeps."},
	GCPruned:  {Plane: "gc", Name: "pruned-versions", Metric: "pruned_versions_total", Help: "Blob versions fully reclaimed (pruned past the retention floor)."},
	GCPending: {Plane: "gc", Name: "pending-blobs", Metric: "pending_blobs", Help: "Blobs with reclamation work outstanding."},
	GCWoven:   {Plane: "gc", Name: "woven", Metric: "", Help: "Aborted versions whose missing identity trees a sweep rebuilt (repair, not reclamation)."},

	RepairPasses:          {Plane: "repair", Name: "passes", Metric: "passes_total", Help: "Completed self-healing repair passes (all engines reporting here)."},
	RepairScanned:         {Plane: "repair", Name: "scanned", Metric: "chunks_scanned_total", Help: "Live-chunk placement records examined by repair passes."},
	RepairUnderReplicated: {Plane: "repair", Name: "under-replicated", Metric: "", Help: "Chunks found with a dead or corrupt replica, or short of their replication degree."},
	RepairReReplicated:    {Plane: "repair", Name: "re-replicated", Metric: "rereplicated_total", Help: "Replica copies recreated on fresh providers."},
	RepairMigrated:        {Plane: "repair", Name: "migrated", Metric: "migrated_total", Help: "Chunks moved off overfull providers by the rebalancer."},
	RepairBytesMoved:      {Plane: "repair", Name: "bytes-moved", Metric: "bytes_moved_total", Help: "Payload bytes copied by re-replication and rebalance."},
	RepairLeavesPatched:   {Plane: "repair", Name: "leaves-patched", Metric: "leaves_patched_total", Help: "Metadata leaf descriptors rewritten to new placements."},
	RepairLost:            {Plane: "repair", Name: "lost", Metric: "lost_chunks", Help: "Chunks with no surviving replica (unrecoverable until a provider returns)."},
	RepairCorruptPurged:   {Plane: "repair", Name: "corrupt-purged", Metric: "corrupt_purged_total", Help: "Quarantined corrupt replicas deleted after a verified copy replaced them."},
	RepairErrors:          {Plane: "repair", Name: "errors", Metric: "errors_total", Help: "Per-blob repair failures (retried next pass)."},

	ScrubPasses:       {Plane: "scrub", Name: "passes", Metric: "passes_total", Help: "Completed scrub passes (all engines reporting here)."},
	ScrubScanned:      {Plane: "scrub", Name: "scanned", Metric: "chunks_scanned_total", Help: "Chunk replicas verified against their digests by scrub passes."},
	ScrubBytes:        {Plane: "scrub", Name: "bytes", Metric: "bytes_scanned_total", Help: "Payload bytes read back and verified by scrub passes."},
	ScrubCorruptFound: {Plane: "scrub", Name: "corrupt", Metric: "corrupt_found_total", Help: "Replicas that failed verification during a scrub (quarantined for repair)."},
	ScrubBackfilled:   {Plane: "scrub", Name: "backfilled", Metric: "backfilled_total", Help: "Legacy digestless chunks whose digest was minted by a scrub."},
	ScrubErrors:       {Plane: "scrub", Name: "errors", Metric: "errors_total", Help: "Per-provider scrub failures (retried next pass)."},

	// The TTL is exported in seconds, as blobseer_lease_ttl_seconds, by
	// the one family registered by hand (obs.RegisterVManager).
	LeaseTTLMs:   {Plane: "lease", Name: "ttl-ms", Metric: "", Help: "Configured write-lease TTL in milliseconds (0 = leases disabled)."},
	LeaseActive:  {Plane: "lease", Name: "active", Metric: "active", Help: "Unfinished versions currently holding a write lease."},
	LeaseGranted: {Plane: "lease", Name: "granted", Metric: "granted_total", Help: "Write leases granted on Assign."},
	LeaseRenewed: {Plane: "lease", Name: "renewed", Metric: "renewed_total", Help: "Write-lease renewals."},
	LeaseExpired: {Plane: "lease", Name: "expired", Metric: "expired_total", Help: "Write leases expired (version auto-aborted server-side)."},
}

// Counters is one value per version-manager counter. It is a pass's
// delta, the vm.maintreport payload, an engine's lifetime totals and the
// vm.maintstats response alike. The version manager is the aggregation
// point — passes may run from the cluster harness, a maint daemon or the
// CLI, and `blobseer-cli stats` must see them all — but apart from
// the journaled GC totals the counters are pure observability.
type Counters [NumCounters]uint64

// Add folds o into c.
func (c *Counters) Add(o *Counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (c *Counters) Encode(e *wire.Encoder) { c.Wire(e.Codec()) }
func (c *Counters) Decode(d *wire.Decoder) { c.Wire(d.Codec()) }
func (c *Counters) Wire(w *wire.Codec) {
	for i := range c {
		w.U64(&c[i])
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

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *CompactResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *CompactResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *CompactResp) Wire(c *wire.Codec) {
	c.U64(&r.CompactedVersions)
	c.Bool(&r.Persistent)
}

// Ack is the empty acknowledgment.
type Ack = meta.Ack
