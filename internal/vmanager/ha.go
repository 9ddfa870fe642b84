package vmanager

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// High availability for the version manager — the one component whose
// death stops every write in the system (§III calls it "the key component
// of the system"; until now it was also the last single point of failure).
//
// Design: primary/backup with lease-based leadership, not consensus. The
// leader streams its journal to standbys by riding the existing group
// commit (repl.go); standbys replay continuously into warm state and
// watch a leadership lease refreshed by the replication traffic itself.
// When the lease lapses a standby assumes leadership under a higher
// epoch; epochs are journaled fencing tokens, so a deposed leader — even
// one that crashed and recovered — discovers it was deposed and redirects
// its clients instead of serving.
//
// Lock order (never the reverse): ha.mu → jmu → m.mu/b.mu. The (epoch,
// leader) pair lives in an atomic pointer so snapshot encoding, which
// already holds m.mu, can read it without touching ha.mu; the replicator
// never takes ha.mu at all — it runs on the commit path under journal
// locks, so fencing discovered there is flagged and the monitor
// goroutine performs the actual step-down.

// NotLeaderError rejects an operation on a node that is not the leader.
// It implements the rpc layer's redirect contract, so it crosses the wire
// as a typed redirect carrying the leader's address, not prose.
type NotLeaderError struct {
	Leader string // "" when no better hint exists
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "vmanager: not the leader (leader unknown)"
	}
	return fmt.Sprintf("vmanager: not the leader (leader is %s)", e.Leader)
}

// RedirectTarget implements rpc's redirector interface.
func (e *NotLeaderError) RedirectTarget() string { return e.Leader }

// Roles. roleNone is the zero value: HA disabled, every gate passes — a
// lone version manager behaves exactly as before this subsystem existed.
const (
	roleNone = int32(iota)
	roleLeader
	roleStandby
)

// epochInfo is the newest known leadership claim. Held in an atomic
// pointer (see the lock-order note above); monotone under adoptEpochInfo.
type epochInfo struct {
	epoch  uint64
	leader string
}

// ReplicateFunc ships one replication message to a peer and returns its
// response, under the ship or probe round's context. Supplied by the
// deployment (an rpc client sourced at this node's address); the manager
// itself never dials.
type ReplicateFunc func(ctx context.Context, addr string, req *ReplicateReq) (*ReplicateResp, error)

// HAConfig configures one node of a replicated version-manager group.
type HAConfig struct {
	// Self is this node's address as peers and clients should dial it.
	Self string
	// Peers are the other group members' addresses (excluding Self).
	Peers []string
	// LeadershipTTL is the lease: a standby that hears nothing from the
	// leader for longer takes over (plus a rank-based stagger). Zero
	// means one second.
	LeadershipTTL time.Duration
	// Quorum selects the durability mode: true (repl=quorum) gates every
	// journal commit on at least one synced standby acknowledging the
	// records, so a leader crash loses no committed version; false
	// (repl=async) acknowledges locally and streams in the background.
	// Either way a leader with no reachable standby keeps serving —
	// unsynced peers are demoted out of the commit gate, never allowed
	// to wedge it.
	Quorum bool
	// Bootstrap lets this node claim epoch 1 when its journal has never
	// seen an epoch — exactly one node of a virgin deployment sets it.
	// A node whose journal knows any epoch always boots as standby: a
	// rebooting ex-leader must rejoin and be fenced, not re-seize power.
	Bootstrap bool
	// Transport ships replication messages.
	Transport ReplicateFunc
	// Tracer, when set, opens one root span per round — one message
	// shipped to one standby, or one takeover probe of every peer — whose
	// context the round's Transport calls carry.
	Tracer *trace.Tracer
}

// haState is the Manager's high-availability state. The zero value means
// HA disabled.
type haState struct {
	enabled atomic.Bool
	halted  atomic.Bool
	role    atomic.Int32
	epoch   atomic.Pointer[epochInfo]

	mu        sync.Mutex // leadership transitions and lease bookkeeping
	cfg       HAConfig
	lastHeard time.Time
	repl      *replicator // leader only

	// Standby stream cursor, serialized by applyMu (HandleReplicate's
	// apply phase must not interleave).
	applyMu    sync.Mutex
	session    uint64
	appliedSeq uint64
	synced     bool

	takeovers atomic.Uint64
	fences    atomic.Uint64
	// noQuorumCommits counts quorum-mode commits acknowledged with zero
	// standby acks. Lives here, not on the replicator, so the count
	// survives leadership terms.
	noQuorumCommits atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// epochView reads the newest known (epoch, leader) claim without locks.
func (m *Manager) epochView() epochInfo {
	if p := m.ha.epoch.Load(); p != nil {
		return *p
	}
	return epochInfo{}
}

// adoptEpochInfo records an (epoch, leader) observation in RAM if it is
// at least as new as the current one. Equal-epoch claims with a different
// leader overwrite (the dual-leader tie-break resolves who).
func (m *Manager) adoptEpochInfo(epoch uint64, leader string) {
	for {
		p := m.ha.epoch.Load()
		if p != nil && (p.epoch > epoch || (p.epoch == epoch && p.leader == leader)) {
			return
		}
		if m.ha.epoch.CompareAndSwap(p, &epochInfo{epoch: epoch, leader: leader}) {
			return
		}
	}
}

// journalEpoch makes an (epoch, leader) observation durable and adopts it
// in RAM. Adoption proceeds even if the disk append fails — refusing to
// believe in a higher epoch because the local disk hiccuped would be a
// worse split-brain than losing the fencing record.
func (m *Manager) journalEpoch(epoch uint64, leader string) error {
	cur := m.epochView()
	if epoch < cur.epoch || (epoch == cur.epoch && leader == cur.leader) {
		return nil
	}
	r := record{kind: recEpoch, n: epoch, leader: leader}
	m.journalBegin()
	err := m.commit(nil, &r)
	m.journalEnd()
	if err != nil {
		_ = m.apply(nil, &r) // adopted regardless, as above
	}
	return err
}

// EnableHA turns this manager into one node of a replicated group. It
// requires a durable journal — replication IS the journal stream, and
// fencing tokens must survive restarts. Call after the node's RPC server
// is reachable (peers will start calling vm.replicate at it).
func (m *Manager) EnableHA(cfg HAConfig) error {
	if m.j == nil {
		return errors.New("vmanager: HA requires a durable journal (volatile managers cannot replicate)")
	}
	if cfg.Transport == nil {
		return errors.New("vmanager: HA requires a replication transport")
	}
	if cfg.Self == "" {
		return errors.New("vmanager: HA requires the node's own address")
	}
	if cfg.LeadershipTTL <= 0 {
		cfg.LeadershipTTL = time.Second
	}
	h := &m.ha
	h.mu.Lock()
	if h.enabled.Load() {
		h.mu.Unlock()
		return errors.New("vmanager: HA already enabled")
	}
	h.cfg = cfg
	h.lastHeard = m.now()
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	var err error
	if ei := m.epochView(); ei.epoch == 0 && cfg.Bootstrap {
		err = m.becomeLeaderLocked(1)
	} else {
		h.role.Store(roleStandby)
	}
	h.enabled.Store(true)
	h.mu.Unlock()
	if err != nil {
		return err
	}
	go m.haMonitor()
	return nil
}

// Halt freezes the node in place, simulating a killed process without
// tearing down the Go heap: monitor and replicator stop, every gate
// fails, replicate calls are refused. Used by crash tests and by the
// deployment's kill path; irreversible for this Manager instance.
func (m *Manager) Halt() {
	h := &m.ha
	if h.halted.Swap(true) {
		return
	}
	if !h.enabled.Load() {
		return
	}
	close(h.stop)
	<-h.done
	h.mu.Lock()
	if h.repl != nil {
		m.j.SetMirror(nil)
		h.repl.shutdown()
		h.repl = nil
	}
	h.mu.Unlock()
	m.wakeAllWaiters()
}

// leaderGate admits an operation only on a node that may serve clients:
// any node when HA is off, the leader otherwise. Standbys answer with a
// typed redirect to the leader.
func (m *Manager) leaderGate() error {
	h := &m.ha
	if !h.enabled.Load() {
		return nil
	}
	if h.halted.Load() {
		return &NotLeaderError{}
	}
	if h.role.Load() == roleLeader {
		return nil
	}
	ei := m.epochView()
	h.mu.Lock()
	self := h.cfg.Self
	h.mu.Unlock()
	leader := ei.leader
	if leader == self {
		leader = "" // mid-transition; no better hint to give
	}
	return &NotLeaderError{Leader: leader}
}

// expiryAllowed reports whether this node should run lease expiry: always
// when HA is off; only a live leader when HA is on (a standby aborting
// versions on its own would diverge from the leader's journal).
func (m *Manager) expiryAllowed() bool {
	h := &m.ha
	if h.halted.Load() {
		return false
	}
	if !h.enabled.Load() {
		return true
	}
	return h.role.Load() == roleLeader
}

// becomeLeaderLocked assumes leadership at the given epoch: journal the
// claim (write-ahead — the fencing token must be durable before anyone
// is told), attach the replicator to the journal's commit path, then
// flip the role so the gates open. Caller holds ha.mu.
func (m *Manager) becomeLeaderLocked(epoch uint64) error {
	h := &m.ha
	if err := m.journalEpoch(epoch, h.cfg.Self); err != nil {
		return fmt.Errorf("vmanager: journaling leadership epoch %d: %w", epoch, err)
	}
	r := newReplicator(m, epoch, h.cfg)
	h.repl = r
	// Mirror before role: once the gates open, every journaled record
	// must ride the stream — a record that slipped between would leave
	// standbys silently diverged until the next full resync.
	m.j.SetMirror(r.Mirror)
	h.role.Store(roleLeader)
	h.takeovers.Add(1)
	r.start()
	return nil
}

// stepDownLocked demotes a leader (or re-points a standby) to follow the
// given authority: detach the mirror, stop the replicator, journal the
// epoch that deposed us, and wake every parked waiter so their calls
// re-check the gate and turn into redirects. Caller holds ha.mu.
func (m *Manager) stepDownLocked(epoch uint64, leader string) {
	h := &m.ha
	if h.role.Load() == roleLeader {
		m.j.SetMirror(nil)
		if h.repl != nil {
			h.repl.shutdown()
			h.repl = nil
		}
		h.fences.Add(1)
	}
	h.role.Store(roleStandby)
	_ = m.journalEpoch(epoch, leader)
	h.lastHeard = m.now()
	m.wakeAllWaiters()
}

// wakeAllWaiters drains every blob's WaitPublished waiters. Used on
// leadership loss: the publishes those callers wait for will happen on
// another node.
func (m *Manager) wakeAllWaiters() {
	for _, b := range m.blobList() {
		b.mu.Lock()
		b.wakeWaitersLocked()
		b.mu.Unlock()
	}
}

// haMonitor is the node's supervision loop: a leader watches for fencing
// flagged by its replicator; a standby watches the leadership lease.
func (m *Manager) haMonitor() {
	h := &m.ha
	defer close(h.done)
	tick := h.cfg.LeadershipTTL / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		m.haTick()
	}
}

func (m *Manager) haTick() {
	h := &m.ha
	if h.halted.Load() {
		return
	}
	h.mu.Lock()
	switch h.role.Load() {
	case roleLeader:
		// The replicator cannot step down itself (it runs on the commit
		// path under journal locks); it flags fencing, we act on it.
		if r := h.repl; r != nil {
			if epoch, leader, fenced := r.fencedBy(); fenced {
				m.stepDownLocked(epoch, leader)
			}
		}
		h.mu.Unlock()
	case roleStandby:
		ttl := h.cfg.LeadershipTTL
		if m.now().Sub(h.lastHeard) <= ttl+m.takeoverStaggerLocked() {
			h.mu.Unlock()
			return
		}
		ei := m.epochView()
		cfg := h.cfg
		// Probe without holding ha.mu: transport calls block, and peers
		// answering our probe must not convoy behind this node's lock.
		h.mu.Unlock()
		if m.deferTakeover(ei, cfg) {
			return
		}
		h.mu.Lock()
		// Re-validate under the lock — a replication message may have
		// refreshed the lease, changed the epoch, or promoted this node
		// while the probes were in flight.
		if h.role.Load() == roleStandby &&
			m.now().Sub(h.lastHeard) > ttl+m.takeoverStaggerLocked() &&
			m.epochView() == ei {
			// Assume leadership under the next epoch. If a peer beat us
			// to it, its heartbeats carry the same (or a higher) epoch
			// and the tie-break in HandleReplicate settles who survives.
			_ = m.becomeLeaderLocked(ei.epoch + 1)
		}
		h.mu.Unlock()
	default:
		h.mu.Unlock()
	}
}

// deferTakeover is the replication-recency check run before a lease-expiry
// takeover: it probes every peer and reports whether some reachable one
// should win leadership instead of this node — a still-live leader, a node
// tracking a newer epoch, or a standby whose replication cursor is
// strictly ahead of ours. Without it, address-ranked stagger alone decides
// the takeover race, and in quorum mode (where one standby ack gates each
// commit) a standby that never saw the last acknowledged commits could
// self-promote and durably discard them via the divergent-tail cut.
//
// The ordering is strict, so two candidates can never defer to each other:
// ties (equal cursors, or cursors from different sessions, which are
// incomparable) fall through to the stagger ranking. Unreachable peers are
// skipped — with every peer dead, a lone standby must still take over,
// whatever its cursor says: it is the best history left.
func (m *Manager) deferTakeover(ei epochInfo, cfg HAConfig) bool {
	h := &m.ha
	h.applyMu.Lock()
	selfSession, selfSeq, selfSynced := h.session, h.appliedSeq, h.synced
	h.applyMu.Unlock()
	ctx, round := cfg.Tracer.StartOp(context.Background(), "vm.probe")
	defer round.Finish(nil)
	req := &ReplicateReq{Probe: true, Epoch: ei.epoch, Leader: ei.leader}
	for _, addr := range cfg.Peers {
		resp, err := cfg.Transport(ctx, addr, req)
		if err != nil {
			continue
		}
		switch {
		case resp.IsLeader && resp.Epoch >= ei.epoch:
			// A live leader we simply cannot hear (asymmetric partition):
			// keep following it instead of forking a competing epoch.
			m.adoptEpochInfo(resp.Epoch, resp.Leader)
			return true
		case resp.Epoch > ei.epoch:
			// The peer follows a newer authority than we know; it (or its
			// leader) is ahead of us on fencing alone.
			m.adoptEpochInfo(resp.Epoch, resp.Leader)
			return true
		case resp.Session == selfSession && resp.AppliedSeq > selfSeq:
			// Same leader log-instance: the cursor itself decides, and
			// strictly, so the laggard defers and the peer does not.
			return true
		case resp.Session != selfSession && resp.Synced && !selfSynced:
			// Incomparable cursors: a peer streaming live beats a node
			// that never caught up.
			return true
		}
	}
	return false
}

// takeoverStaggerLocked spaces concurrent takeover attempts: candidates
// (every node except the lapsed leader) are ranked by address, and each
// waits rank*TTL/4 plus jitter beyond the lease before moving, so the
// first-ranked standby usually wins uncontested. Caller holds ha.mu.
func (m *Manager) takeoverStaggerLocked() time.Duration {
	h := &m.ha
	ei := m.epochView()
	cands := make([]string, 0, len(h.cfg.Peers)+1)
	cands = append(cands, h.cfg.Self)
	for _, p := range h.cfg.Peers {
		if p != ei.leader {
			cands = append(cands, p)
		}
	}
	sort.Strings(cands)
	rank := 0
	for i, c := range cands {
		if c == h.cfg.Self {
			rank = i
			break
		}
	}
	ttl := h.cfg.LeadershipTTL
	jitter := time.Duration(rand.Int63n(int64(ttl/8) + 1))
	return time.Duration(rank)*ttl/4 + jitter
}

// HandleReplicate is the standby half of the replication protocol: epoch
// fencing first, then snapshot install / record replay / heartbeat. Every
// message from the current (or a newer) leader refreshes the leadership
// lease — replication traffic IS the heartbeat.
func (m *Manager) HandleReplicate(req *ReplicateReq) (*ReplicateResp, error) {
	h := &m.ha
	if !h.enabled.Load() {
		return nil, errors.New("vmanager: HA not enabled")
	}
	if h.halted.Load() {
		return nil, errors.New("vmanager: node halted")
	}
	if req.Probe {
		// A takeover candidate asking how current we are. No authority:
		// it must not refresh the lease (it is not the leader), fence
		// anyone, or touch the stream — just report our view.
		ei := m.epochView()
		resp := &ReplicateResp{
			Epoch:    ei.epoch,
			Leader:   ei.leader,
			IsLeader: h.role.Load() == roleLeader,
		}
		h.applyMu.Lock()
		resp.Session, resp.AppliedSeq, resp.Synced = h.session, h.appliedSeq, h.synced
		h.applyMu.Unlock()
		return resp, nil
	}
	h.mu.Lock()
	cur := m.epochView()
	switch {
	case req.Epoch < cur.epoch:
		// Deposed leader still talking: fence it.
		resp := &ReplicateResp{Fenced: true, Epoch: cur.epoch, Leader: cur.leader}
		h.mu.Unlock()
		return resp, nil
	case req.Epoch == cur.epoch && h.role.Load() == roleLeader && req.Leader != h.cfg.Self:
		// Two leaders share an epoch only after a takeover race. The
		// lower address wins — deterministic on both sides.
		if h.cfg.Self < req.Leader {
			resp := &ReplicateResp{Fenced: true, Epoch: cur.epoch, Leader: h.cfg.Self}
			h.mu.Unlock()
			return resp, nil
		}
		m.stepDownLocked(req.Epoch, req.Leader)
	case req.Epoch > cur.epoch || req.Leader != cur.leader:
		if h.role.Load() == roleLeader {
			m.stepDownLocked(req.Epoch, req.Leader)
		} else {
			_ = m.journalEpoch(req.Epoch, req.Leader)
		}
	}
	h.lastHeard = m.now()
	h.mu.Unlock()

	h.applyMu.Lock()
	resp := &ReplicateResp{Epoch: req.Epoch, Leader: req.Leader}
	applied := false
	switch {
	case len(req.Snapshot) > 0:
		if err := m.installSnapshot(req.Snapshot); err != nil {
			h.applyMu.Unlock()
			return nil, err
		}
		h.session = req.Session
		h.appliedSeq = req.Seq
		h.synced = true
		resp.AckSeq = req.Seq
	case len(req.Records) > 0:
		if !h.synced || h.session != req.Session || h.appliedSeq != req.Seq {
			h.synced = false
			resp.NeedSync = true
			resp.AckSeq = h.appliedSeq
			break
		}
		if err := m.applyReplicated(req.Records); err != nil {
			h.synced = false
			resp.NeedSync = true
			resp.AckSeq = h.appliedSeq
			break
		}
		h.appliedSeq += uint64(len(req.Records))
		resp.AckSeq = h.appliedSeq
		applied = true
	default: // heartbeat; Seq is the leader's view of our acked position
		if !h.synced || h.session != req.Session || h.appliedSeq < req.Seq {
			resp.NeedSync = true
		}
		resp.AckSeq = h.appliedSeq
	}
	h.applyMu.Unlock()
	if applied {
		m.maybeCompact() // a standby bounds its own WAL growth
	}
	return resp, nil
}

// installSnapshot replaces this standby's entire state with the leader's
// snapshot and truncates the local journal to it — the divergent-tail
// cut: anything this node journaled beyond the replicated prefix (a
// fenced ex-leader's unacknowledged tail) is discarded in favor of the
// authority's history.
func (m *Manager) installSnapshot(snap []byte) error {
	fresh := NewManager()
	if err := fresh.decodeSnapshot(snap); err != nil {
		return fmt.Errorf("vmanager: decoding replication snapshot: %w", err)
	}
	m.jmu.Lock()
	defer m.jmu.Unlock()
	m.mu.Lock()
	old := m.blobs
	m.blobs = fresh.blobs
	m.nextID = fresh.nextID
	m.mu.Unlock()
	m.maintMu.Lock()
	copy(m.maint[:journaledCounters], fresh.maint[:journaledCounters])
	m.maintMu.Unlock()
	if ei := fresh.epochView(); ei.epoch > 0 {
		m.adoptEpochInfo(ei.epoch, ei.leader)
	}
	// Wake waiters parked on the replaced blob states; their retry hits
	// the leader gate and redirects.
	for _, b := range old {
		b.mu.Lock()
		b.wakeWaitersLocked()
		b.mu.Unlock()
	}
	return m.j.Compact(snap)
}

// applyReplicated appends the leader's records to the local journal and
// replays them into RAM through the same apply the leader ran — the
// standby's copy of the write-ahead discipline (journal first, then
// state).
func (m *Manager) applyReplicated(records [][]byte) error {
	m.journalBegin()
	defer m.journalEnd()
	if err := m.j.AppendBatch(records); err != nil {
		return err
	}
	for i, rec := range records {
		if err := m.replay(rec); err != nil {
			return fmt.Errorf("vmanager: applying replicated record %d/%d: %w", i+1, len(records), err)
		}
	}
	return nil
}

// WhoIsLeader answers a leadership probe with this node's view.
func (m *Manager) WhoIsLeader() *WhoIsLeaderResp {
	h := &m.ha
	ei := m.epochView()
	resp := &WhoIsLeaderResp{Leader: ei.leader, Epoch: ei.epoch}
	if h.enabled.Load() {
		h.mu.Lock()
		resp.Self = h.cfg.Self
		h.mu.Unlock()
		resp.IsLeader = h.role.Load() == roleLeader && !h.halted.Load()
	}
	return resp
}

// HAStatus reports this node's full high-availability view: role, epoch,
// stream position, and (on a leader) each standby's replication lag.
func (m *Manager) HAStatus() *HAStatusResp {
	h := &m.ha
	ei := m.epochView()
	resp := &HAStatusResp{
		Enabled:         h.enabled.Load(),
		Epoch:           ei.epoch,
		Leader:          ei.leader,
		Takeovers:       h.takeovers.Load(),
		Fences:          h.fences.Load(),
		NoQuorumCommits: h.noQuorumCommits.Load(),
	}
	if !resp.Enabled {
		resp.Role = "single"
		return resp
	}
	h.mu.Lock()
	resp.Self = h.cfg.Self
	r := h.repl
	h.mu.Unlock()
	switch {
	case h.halted.Load():
		// A halted node holds no role: it neither serves nor watches the
		// lease. In-process observers (the cluster harness, metrics) must
		// not mistake a frozen ex-leader for the live one.
		resp.Role = "halted"
	case h.role.Load() == roleLeader:
		resp.Role = "leader"
	default:
		resp.Role = "standby"
	}
	if r != nil {
		resp.Session, resp.StreamSeq, resp.Standbys = r.status()
	} else {
		h.applyMu.Lock()
		resp.Session, resp.StreamSeq = h.session, h.appliedSeq
		h.applyMu.Unlock()
	}
	return resp
}

// StateDigest hashes the manager's full logical state (a pure,
// non-compacting snapshot encode, deterministic by construction). Two
// nodes that replicated the same history report the same digest — the
// property the convergence tests assert byte-for-byte.
func (m *Manager) StateDigest() string {
	m.jmu.Lock()
	defer m.jmu.Unlock()
	snap, _ := m.encodeSnapshotOpt(false)
	sum := sha256.Sum256(snap)
	return hex.EncodeToString(sum[:])
}
