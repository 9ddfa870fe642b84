package vmanager

import (
	"context"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/trace"
)

// The leader half of control-plane replication. The replicator attaches
// to the durable journal as its Mirror: every group-committed batch of
// records is handed over in exact WAL order, on the commit path, at the
// cost of one extra network write per fsync. Standbys that fall behind
// (fresh boot, missed records, rejected apply) are demoted out of the
// stream and caught up with a full snapshot cut under the journal's
// exclusive lock — the same snapshot a compaction would take.
//
// Ordering: all traffic to one peer flows through one queue drained by
// one goroutine, so a snapshot enqueued during resync is installed before
// any record that follows it; marking the peer synced at enqueue time is
// therefore safe, and Mirror calls (globally serialized by the group
// commit) enqueue records behind it in stream order.
//
// The replicator never takes ha.mu (it runs under journal locks; see the
// lock-order note in ha.go). When a peer answers Fenced, the fact is
// flagged here and the monitor goroutine performs the step-down.

type replItem struct {
	req    *ReplicateReq
	isSnap bool
	isHB   bool
}

type replPeer struct {
	addr  string
	queue chan replItem
	done  chan struct{}

	// Guarded by replicator.mu.
	synced    bool
	resyncing bool // a catch-up snapshot is queued or in flight
	ackSeq    uint64
}

type replicator struct {
	m         *Manager
	self      string
	epoch     uint64
	session   uint64
	quorum    bool
	ttl       time.Duration
	transport ReplicateFunc
	tracer    *trace.Tracer

	mu    sync.Mutex
	cond  *sync.Cond
	seq   uint64
	peers []*replPeer

	fenced       bool
	fencedEpoch  uint64
	fencedLeader string
	// degraded is true while quorum-mode commits are being acknowledged
	// with zero standby acks. Tracked so the condition logs once per
	// degrade window, not once per commit.
	degraded bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newReplicator(m *Manager, epoch uint64, cfg HAConfig) *replicator {
	r := &replicator{
		m:     m,
		self:  cfg.Self,
		epoch: epoch,
		// Sessions identify one leader log-instance; sequences are only
		// comparable within a session, so a fresh random (nonzero) value
		// per term forces every standby through an explicit resync.
		session:   rand.Uint64() | 1,
		quorum:    cfg.Quorum,
		ttl:       cfg.LeadershipTTL,
		transport: cfg.Transport,
		tracer:    cfg.Tracer,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, addr := range cfg.Peers {
		r.peers = append(r.peers, &replPeer{
			addr:  addr,
			queue: make(chan replItem, 4096),
			done:  make(chan struct{}),
		})
	}
	return r
}

func (r *replicator) start() {
	for _, p := range r.peers {
		go r.sendLoop(p)
	}
	go r.driveLoop()
}

// shutdown stops the loops and wakes any commit blocked in waitQuorum.
// Safe to call more than once; callers detach the Mirror first, so no new
// Mirror call arrives after this returns.
func (r *replicator) shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	for _, p := range r.peers {
		<-p.done
	}
	r.cond.Broadcast()
}

// fencedBy reports whether some peer answered with a higher epoch, and
// whose authority deposed this replicator's leader.
func (r *replicator) fencedBy() (uint64, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fencedEpoch, r.fencedLeader, r.fenced
}

// status snapshots the stream position and per-standby lag for HAStatus.
// A standby reports Synced only once its catch-up snapshot's delivery has
// returned: p.synced flips at enqueue time (stream ordering through the
// peer queue needs it), before the standby holds the state.
func (r *replicator) status() (session, seq uint64, standbys []StandbyStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.peers {
		standbys = append(standbys, StandbyStatus{Addr: p.addr, Synced: p.synced && !p.resyncing, AckSeq: p.ackSeq})
	}
	return r.session, r.seq, standbys
}

// Mirror is the durable.Mirror hook: invoked on the journal commit path,
// in exact WAL order, for every batch of records that reached disk. In
// quorum mode it blocks until a synced standby acknowledges the batch;
// in async mode it enqueues and returns. An error fails the batch's
// appends — the records stay in the local WAL, same partial-failure
// surface as an fsync error, and are truncated at the next resync if
// leadership was lost.
func (r *replicator) Mirror(records [][]byte) error {
	r.mu.Lock()
	if r.fenced {
		leader := r.fencedLeader
		r.mu.Unlock()
		return &NotLeaderError{Leader: leader}
	}
	seqStart := r.seq
	r.seq += uint64(len(records))
	req := &ReplicateReq{
		Epoch:   r.epoch,
		Leader:  r.self,
		Session: r.session,
		Seq:     seqStart,
		Records: records,
	}
	for _, p := range r.peers {
		if !p.synced {
			continue
		}
		select {
		case p.queue <- replItem{req: req}:
		default:
			// The peer cannot drain as fast as the leader commits:
			// demote it to a full resync rather than block the commit
			// path on its backlog.
			p.synced = false
			p.resyncing = false
			log.Printf("vmanager: replication queue to standby %s overflowed; demoting it to a snapshot resync", p.addr)
		}
	}
	r.mu.Unlock()
	if r.quorum {
		return r.waitQuorum(seqStart + uint64(len(records)))
	}
	return nil
}

// waitQuorum blocks until a synced standby acknowledges the stream
// through target. Degrade rules keep a lone leader live: with zero
// synced standbys the gate passes (there is nobody to wait for), and a
// standby that cannot ack within the window is demoted rather than
// allowed to stall the write path forever.
//
// Both degrades mean quorum replication is BEST-EFFORT under partition
// and standby loss: a commit acknowledged this way lives only on the
// leader, and is lost if the leader is then killed (or fenced by a
// standby that took over across the partition). The trade is deliberate
// — availability over wedging every write — but never silent: each such
// commit increments the noQuorumCommits counter (HAStatus,
// blobseer_vm_ha_noquorum_commits_total) and the degrade/restore edges
// are logged.
func (r *replicator) waitQuorum(target uint64) error {
	timeout := 2 * r.ttl
	if timeout < time.Second {
		timeout = time.Second
	}
	deadline := time.Now().Add(timeout)
	// The lock/unlock inside the callback serializes the broadcast with
	// cond.Wait, closing the lost-wakeup window.
	wake := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		//lint:ignore SA2001 empty critical section pairs the broadcast with Wait
		r.mu.Unlock()
		r.cond.Broadcast()
	})
	defer wake.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.fenced {
			return &NotLeaderError{Leader: r.fencedLeader}
		}
		select {
		case <-r.stop:
			return &NotLeaderError{Leader: r.fencedLeader}
		default:
		}
		synced := 0
		for _, p := range r.peers {
			if p.synced {
				synced++
				if p.ackSeq >= target {
					if r.degraded {
						r.degraded = false
						log.Printf("vmanager: quorum restored (standby %s acked through %d)", p.addr, p.ackSeq)
					}
					return nil
				}
			}
		}
		if synced == 0 {
			return r.ackWithoutQuorumLocked("no synced standby")
		}
		if !time.Now().Before(deadline) {
			for _, p := range r.peers {
				if p.synced && p.ackSeq < target {
					p.synced = false
					p.resyncing = false
					log.Printf("vmanager: standby %s missed the quorum window (%v, acked %d < %d); demoting it to a snapshot resync",
						p.addr, timeout, p.ackSeq, target)
				}
			}
			return r.ackWithoutQuorumLocked("quorum timeout")
		}
		r.cond.Wait()
	}
}

// ackWithoutQuorumLocked acknowledges a quorum-mode commit that no
// standby holds: count it, log the degrade edge once, let the commit
// through. Caller holds r.mu.
func (r *replicator) ackWithoutQuorumLocked(why string) error {
	r.m.ha.noQuorumCommits.Add(1)
	if !r.degraded {
		r.degraded = true
		log.Printf("vmanager: committing WITHOUT quorum (%s) — acknowledged writes live only on this leader until a standby resyncs", why)
	}
	return nil
}

func (r *replicator) sendLoop(p *replPeer) {
	defer close(p.done)
	for {
		select {
		case <-r.stop:
			return
		case item := <-p.queue:
			r.deliver(p, item)
		}
	}
}

func (r *replicator) deliver(p *replPeer, item replItem) {
	r.mu.Lock()
	if !item.isSnap && !item.isHB && !p.synced {
		// Records enqueued before a demotion; the snapshot that follows
		// supersedes them.
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	ctx, round := r.tracer.StartOp(context.Background(), "vm.ship")
	resp, err := r.transport(ctx, p.addr, item.req)
	round.Finish(err)

	r.mu.Lock()
	defer func() {
		r.mu.Unlock()
		r.cond.Broadcast()
	}()
	if item.isSnap {
		p.resyncing = false
	}
	if err != nil {
		p.synced = false
		return
	}
	if resp.Fenced {
		if !r.fenced {
			r.fenced = true
			r.fencedEpoch = resp.Epoch
			r.fencedLeader = resp.Leader
		}
		p.synced = false
		return
	}
	if resp.NeedSync {
		// Expected while a catch-up snapshot is still queued behind this
		// item; genuine once no resync is in flight.
		if !p.resyncing {
			p.synced = false
		}
		return
	}
	if resp.AckSeq > p.ackSeq {
		p.ackSeq = resp.AckSeq
	}
}

func (r *replicator) driveLoop() {
	defer close(r.done)
	interval := r.ttl / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		// Run a pass immediately: a fresh leader wants its standbys
		// syncing and any competing claimant fenced now, not a third of
		// a TTL from now.
		r.resyncLagging()
		r.heartbeat()
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

// resyncLagging pushes a catch-up snapshot to every unsynced peer. The
// snapshot is cut under the journal's exclusive lock, so it is a
// consistent prefix of the stream at a known sequence; the peer is marked
// synced at enqueue time — ordering through its queue guarantees the
// snapshot installs before any record enqueued after it.
func (r *replicator) resyncLagging() {
	r.mu.Lock()
	var lagging []*replPeer
	for _, p := range r.peers {
		if !p.synced && !p.resyncing {
			lagging = append(lagging, p)
		}
	}
	fenced := r.fenced
	r.mu.Unlock()
	if len(lagging) == 0 || fenced {
		return
	}
	m := r.m
	m.jmu.Lock()
	snap, _ := m.encodeSnapshotOpt(false)
	r.mu.Lock()
	req := &ReplicateReq{
		Epoch:    r.epoch,
		Leader:   r.self,
		Session:  r.session,
		Seq:      r.seq,
		Snapshot: snap,
	}
	for _, p := range lagging {
		select {
		case p.queue <- replItem{req: req, isSnap: true}:
			p.synced = true
			p.resyncing = true
		default:
		}
	}
	r.mu.Unlock()
	m.jmu.Unlock()
}

// heartbeat refreshes the leadership lease at every peer (synced or not)
// and probes silent ones. Seq carries the peer's own acked position, not
// the stream head: a heartbeat racing in-flight records must not spook a
// healthy standby into a needless resync.
func (r *replicator) heartbeat() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fenced {
		return
	}
	for _, p := range r.peers {
		req := &ReplicateReq{Epoch: r.epoch, Leader: r.self, Session: r.session, Seq: p.ackSeq}
		select {
		case p.queue <- replItem{req: req, isHB: true}:
		default:
		}
	}
}
