package vmanager

import "repro/internal/wire"

// RPC methods added by the replicated control plane.
const (
	// MethodReplicate is the leader→standby journal stream: record
	// batches riding the group commit, heartbeats, and catch-up
	// snapshots. Never leader-gated (it is how a standby follows).
	MethodReplicate = "vm.replicate"
	// MethodWhoIsLeader is the discovery probe clients use to re-resolve
	// the leader after a failover. Answered by every role.
	MethodWhoIsLeader = "vm.whoisleader"
	// MethodHAStatus reports a node's replication view (epoch, role,
	// standby lag) for the CLI and monitoring. Answered by every role.
	MethodHAStatus = "vm.hastatus"
)

// ReplicateReq is one leader→standby replication message. Exactly one of
// four shapes:
//
//   - records: Records holds journal records whose first record has
//     stream sequence Seq (the standby must be at Seq to apply them);
//   - snapshot: Snapshot holds a full state snapshot cut at stream
//     sequence Seq (catch-up resync; replaces the standby's state and
//     truncates its journal — the divergent-tail cut);
//   - heartbeat: neither — Seq tells the standby where the stream is,
//     so it can detect it fell behind, and refreshes the leadership
//     lease either way;
//   - probe: Probe set — a takeover candidate asking for the receiver's
//     replication cursor before claiming leadership. Carries no
//     authority: it must not refresh the lease or fence anyone, and the
//     Epoch/Leader fields are merely the candidate's current view.
type ReplicateReq struct {
	Epoch    uint64 // sender's leadership epoch (fencing token)
	Leader   string // sender's address, as peers should dial it
	Session  uint64 // random per leader log-instance; seqs are per-session
	Seq      uint64
	Probe    bool
	Snapshot []byte
	Records  [][]byte
}

// Encode implements wire.Message.
func (r *ReplicateReq) Encode(e *wire.Encoder) {
	e.PutU64(r.Epoch)
	e.PutString(r.Leader)
	e.PutU64(r.Session)
	e.PutU64(r.Seq)
	e.PutBool(r.Probe)
	e.PutBytes(r.Snapshot)
	e.PutU32(uint32(len(r.Records)))
	for _, rec := range r.Records {
		e.PutBytes(rec)
	}
}

// Decode implements wire.Message.
func (r *ReplicateReq) Decode(d *wire.Decoder) {
	r.Epoch = d.U64()
	r.Leader = d.String()
	r.Session = d.U64()
	r.Seq = d.U64()
	r.Probe = d.Bool()
	r.Snapshot = d.BytesCopy()
	if len(r.Snapshot) == 0 {
		r.Snapshot = nil
	}
	cnt := d.U32()
	r.Records = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		r.Records = append(r.Records, d.BytesCopy())
	}
}

// ReplicateResp acknowledges a replication message.
type ReplicateResp struct {
	// AckSeq is the stream sequence the standby has durably applied
	// through (valid when neither NeedSync nor Fenced).
	AckSeq uint64
	// NeedSync reports the standby cannot apply at the offered sequence
	// (fresh boot, missed records, or a failed apply): the leader must
	// send a catch-up snapshot.
	NeedSync bool
	// Fenced reports the receiver knows a higher epoch than the sender:
	// the sender is deposed and must step down. Epoch/Leader name the
	// authority it should follow.
	Fenced bool
	Epoch  uint64
	Leader string
	// Probe answer: the receiver's role and replication cursor, so a
	// takeover candidate can tell whether this peer is more up to date
	// than itself (same-session sequences are directly comparable).
	IsLeader   bool
	Synced     bool
	Session    uint64
	AppliedSeq uint64
}

// Encode implements wire.Message.
func (r *ReplicateResp) Encode(e *wire.Encoder) {
	e.PutU64(r.AckSeq)
	e.PutBool(r.NeedSync)
	e.PutBool(r.Fenced)
	e.PutU64(r.Epoch)
	e.PutString(r.Leader)
	e.PutBool(r.IsLeader)
	e.PutBool(r.Synced)
	e.PutU64(r.Session)
	e.PutU64(r.AppliedSeq)
}

// Decode implements wire.Message.
func (r *ReplicateResp) Decode(d *wire.Decoder) {
	r.AckSeq = d.U64()
	r.NeedSync = d.Bool()
	r.Fenced = d.Bool()
	r.Epoch = d.U64()
	r.Leader = d.String()
	r.IsLeader = d.Bool()
	r.Synced = d.Bool()
	r.Session = d.U64()
	r.AppliedSeq = d.U64()
}

// WhoIsLeaderResp answers a leadership probe with this node's view.
// Clients adopt the highest-epoch claim across the nodes they can reach.
type WhoIsLeaderResp struct {
	Self     string // responder's address
	IsLeader bool   // responder believes it is the leader
	Leader   string // who the responder follows ("" if unknown)
	Epoch    uint64
}

// Encode implements wire.Message.
func (r *WhoIsLeaderResp) Encode(e *wire.Encoder) {
	e.PutString(r.Self)
	e.PutBool(r.IsLeader)
	e.PutString(r.Leader)
	e.PutU64(r.Epoch)
}

// Decode implements wire.Message.
func (r *WhoIsLeaderResp) Decode(d *wire.Decoder) {
	r.Self = d.String()
	r.IsLeader = d.Bool()
	r.Leader = d.String()
	r.Epoch = d.U64()
}

// StandbyStatus is one peer's replication state as the leader sees it.
type StandbyStatus struct {
	Addr   string
	Synced bool   // streaming live (false = awaiting catch-up snapshot)
	AckSeq uint64 // stream sequence acked through
}

// Encode implements wire.Message.
func (s *StandbyStatus) Encode(e *wire.Encoder) {
	e.PutString(s.Addr)
	e.PutBool(s.Synced)
	e.PutU64(s.AckSeq)
}

// Decode implements wire.Message.
func (s *StandbyStatus) Decode(d *wire.Decoder) {
	s.Addr = d.String()
	s.Synced = d.Bool()
	s.AckSeq = d.U64()
}

// HAStatusResp is one node's full high-availability view.
type HAStatusResp struct {
	Self      string
	Enabled   bool
	Role      string // "single", "leader", "standby" or "halted"
	Epoch     uint64
	Leader    string
	Session   uint64
	StreamSeq uint64 // leader: records streamed; standby: records applied
	Takeovers uint64 // times this node assumed leadership
	Fences    uint64 // times this node was deposed by a higher epoch
	// NoQuorumCommits counts commits this node acknowledged in quorum
	// mode without any standby ack (all standbys dead, lagging past the
	// quorum timeout, or partitioned away). Nonzero and rising means the
	// zero-loss-on-leader-kill guarantee is currently degraded.
	NoQuorumCommits uint64
	Standbys        []StandbyStatus
}

// Encode implements wire.Message.
func (r *HAStatusResp) Encode(e *wire.Encoder) {
	e.PutString(r.Self)
	e.PutBool(r.Enabled)
	e.PutString(r.Role)
	e.PutU64(r.Epoch)
	e.PutString(r.Leader)
	e.PutU64(r.Session)
	e.PutU64(r.StreamSeq)
	e.PutU64(r.Takeovers)
	e.PutU64(r.Fences)
	e.PutU64(r.NoQuorumCommits)
	e.PutU32(uint32(len(r.Standbys)))
	for i := range r.Standbys {
		r.Standbys[i].Encode(e)
	}
}

// Decode implements wire.Message.
func (r *HAStatusResp) Decode(d *wire.Decoder) {
	r.Self = d.String()
	r.Enabled = d.Bool()
	r.Role = d.String()
	r.Epoch = d.U64()
	r.Leader = d.String()
	r.Session = d.U64()
	r.StreamSeq = d.U64()
	r.Takeovers = d.U64()
	r.Fences = d.U64()
	r.NoQuorumCommits = d.U64()
	cnt := d.U32()
	r.Standbys = nil
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		var s StandbyStatus
		s.Decode(d)
		r.Standbys = append(r.Standbys, s)
	}
}
