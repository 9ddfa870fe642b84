package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// VManagerSpec describes one version manager process.
type VManagerSpec struct {
	Listen string
	// Dir is the journal directory, replayed on start; empty runs volatile
	// (state dies with the process). Fsync makes appends survive machine
	// crashes, not just process crashes.
	Dir   string
	Fsync bool
	// LeaseTTL > 0 grants write leases on Assign and runs the expiry loop
	// that aborts versions whose writer vanished. With Meta set (the
	// metadata providers, replicated MetaRepl-fold) the loop also weaves
	// each aborted version's identity tree server-side; without, the weave
	// is left to reclaim's unwoven sweep (the abort — and the frontier
	// unwedge — happens either way).
	LeaseTTL time.Duration
	Meta     []string
	MetaRepl int
	// Peers (this member may bootstrap epoch 1 on a virgin journal) or
	// StandbyOf (it never does) lists the other members of a replicated
	// group, which this one joins; at most one may be set. A harness that
	// learns its ":0" addresses only once every member is up leaves both
	// empty and calls Join afterwards. Advertise is the address peers and
	// clients dial this member at (default: the bound one), HATTL the
	// leadership lease, Repl the commit durability, "quorum" or "async".
	Peers, StandbyOf []string
	Advertise        string
	HATTL            time.Duration
	Repl             string
}

// validate checks the spec; ha says whether the member joins a group.
func (s *VManagerSpec) validate(ha bool) error {
	switch {
	case len(s.Peers) > 0 && len(s.StandbyOf) > 0:
		return errors.New("node: vmanager peers (-vm-peers) and standby-of (-standby-of) are mutually exclusive")
	case ha && s.Dir == "":
		return errors.New("node: vmanager replication requires a journal directory (-dir): standbys replay a durable journal")
	case ha && s.Repl != "quorum" && s.Repl != "async":
		return fmt.Errorf("node: vmanager replication mode (-repl) must be quorum or async, got %q", s.Repl)
	}
	return nil
}

// VManager is a running version manager: the RPC server plus the member's
// replication client and lease-expiry loop. Maintenance runs elsewhere
// (StartMaint), so each pass runs once however many members the group has.
type VManager struct {
	*vmanager.Server
	env  *Env
	spec VManagerSpec
	self string // the address peers and clients dial

	weaver  vmanager.AbortWeaver
	clients []*rpc.Client // replication, lease weaver

	stop      chan struct{} // ends the lease loop
	loops     sync.WaitGroup
	closeOnce sync.Once
}

// StartVManager opens the journal (or a volatile manager), serves it, and
// starts what the spec asks for beside it: group membership and the lease
// loop.
func StartVManager(env *Env, spec VManagerSpec) (*VManager, error) {
	peers, bootstrap := spec.Peers, true
	if len(spec.StandbyOf) > 0 {
		peers, bootstrap = spec.StandbyOf, false
	}
	if err := spec.validate(len(peers) > 0); err != nil {
		return nil, err
	}
	mgr := vmanager.NewManager()
	if spec.Dir != "" {
		var err error
		if mgr, err = vmanager.OpenManager(spec.Dir, vmanager.Options{Fsync: spec.Fsync}); err != nil {
			return nil, fmt.Errorf("node: opening version manager journal %s: %w", spec.Dir, err)
		}
	}
	mgr.SetLeaseTTL(spec.LeaseTTL)
	v := &VManager{
		Server: vmanager.NewServer(env.Network, spec.Listen, mgr),
		env:    env, spec: spec, stop: make(chan struct{}),
	}
	if err := env.serve("vmanager", v.Server); err != nil {
		mgr.Close()
		return nil, err
	}
	v.spec.Listen = v.Addr()
	if v.self = spec.Advertise; v.self == "" {
		v.self = v.Addr()
	}
	// The deployment-wide maintenance/lease totals carry no instance label,
	// so where one process hosts a whole group the first member started
	// feeds them (standbys replicate the same state).
	if owner, _ := env.live.LoadOrStore("vmanager totals", v.self); owner == v.self {
		register(env, "vmanager", mgr, func(get func() *vmanager.Manager) { obs.RegisterVManager(env.Registry, get) })
	}
	if len(peers) > 0 {
		if err := v.Join(peers, bootstrap); err != nil {
			v.Kill()
			return nil, err
		}
	}
	if spec.LeaseTTL > 0 {
		v.runLeaseLoop()
	}
	return v, nil
}

// Join makes the member part of a replicated group with the given other
// members, whose servers must already be reachable. StartVManager calls it
// for a spec that lists them; a harness whose addresses were not known
// then calls it as the second phase of the group's start. Among members
// started together the bootstrap-capable one must join LAST: a fresh
// leader pushes its first catch-up snapshot at once, and a standby that is
// not listening yet stays unsynced for a third of a TTL — long enough for
// a crash test to kill the leader first. On a restarted deployment the
// journal already knows an epoch and bootstrap is inert: every member
// rejoins as a standby and defers to the journaled fencing tokens.
func (v *VManager) Join(peers []string, bootstrap bool) error {
	if err := v.spec.validate(true); err != nil {
		return err
	}
	// Replication goes through a client sourced at the member's own
	// address (like provider heartbeats), so fabric-level fault injection
	// applies to replication traffic too.
	cli := v.env.client("vmanager", v.self, true)
	v.clients = append(v.clients, cli)
	err := v.Manager().EnableHA(vmanager.HAConfig{
		Self:          v.self,
		Peers:         peers,
		LeadershipTTL: v.spec.HATTL,
		Quorum:        v.spec.Repl == "quorum",
		Bootstrap:     bootstrap,
		Tracer:        cli.Tracer(),
		Transport: func(ctx context.Context, addr string, req *vmanager.ReplicateReq) (*vmanager.ReplicateResp, error) {
			var resp vmanager.ReplicateResp
			if err := cli.CallCtx(ctx, addr, vmanager.MethodReplicate, req, &resp); err != nil {
				return nil, err
			}
			return &resp, nil
		},
	})
	if err != nil {
		return fmt.Errorf("node: version manager %s joining its group: %w", v.self, err)
	}
	register(v.env, "vmanager/"+v.self, v.Manager(), func(get func() *vmanager.Manager) {
		obs.RegisterVManagerHA(v.env.Registry, v.self, get)
	})
	v.spec.Peers, v.spec.StandbyOf = nil, peers // what Restart starts
	return nil
}

// runLeaseLoop collects lapsed write leases beside the manager (expiry
// is a manager method, not an RPC). In a group every member runs the loop
// and the manager gates it on being the live leader, so exactly one acts.
func (v *VManager) runLeaseLoop() {
	if len(v.spec.Meta) > 0 {
		cli := v.env.client("lease", "lease", true)
		v.clients = append(v.clients, cli)
		mc := meta.NewClient(cli, v.spec.Meta, v.spec.MetaRepl, 0)
		// One root span per expired version: the weave's descent and
		// meta.put calls reconstruct as one trace.
		v.weaver = func(ctx context.Context, in meta.IdentityInput) error {
			ctx, op := cli.Tracer().StartOp(ctx, "vm.expirelease")
			err := meta.WeaveIdentity(ctx, mc, in)
			op.Finish(err)
			return err
		}
	}
	v.loops.Add(1)
	go func() {
		defer v.loops.Done()
		// A quarter of the TTL aborts a vanished writer within 1.25 TTL;
		// the floor keeps a tiny test TTL from spinning.
		t := time.NewTicker(max(v.spec.LeaseTTL/4, 10*time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-v.stop:
				return
			case <-t.C:
				// A journal error leaves the lease in place for the next tick.
				if n, err := v.RunLeaseExpiry(); err != nil {
					log.Printf("blobseer: vmanager %s: lease expiry: %v (aborted %d)", v.self, err, n)
				}
			}
		}
	}()
}

// RunLeaseExpiry runs one lease-expiry pass now and returns how many
// versions it aborted.
func (v *VManager) RunLeaseExpiry() (int, error) {
	return v.Manager().ExpireLeases(context.Background(), v.weaver)
}

// Close shuts the member down in dependency order. The lease loop, which
// calls into the manager, stops first. Then the manager is halted BEFORE
// anything it writes to goes away: a live leader's replicator or a
// standby's takeover racing the journal close would be shutdown noise, not
// a real deployment event. Then the server, the journal and the clients.
func (v *VManager) Close() {
	v.closeOnce.Do(func() {
		close(v.stop)
		v.loops.Wait()
		v.Manager().Halt()
		v.Server.Close()
		v.Manager().Close()
		for _, cli := range v.clients {
			cli.Close()
		}
	})
}

// Kill crashes the member: its RPC server goes dark at once and nothing is
// flushed — the state a kill -9 leaves behind (the journal already holds
// every acknowledged mutation). The manager is halted too, or the dead
// member would keep heartbeating, replicating and expiring leases as a
// ghost leader inside the process. And the journal fd is released, so the
// same spec can be started again: the crashed server's in-flight handlers
// may still be appending (group commit can hold their batches in flight),
// and an old-instance write landing after the new instance's open would
// interleave two writers on one WAL. Closing fails those stragglers with
// ErrClosed — exactly what a real kill -9 does to them.
func (v *VManager) Kill() {
	v.Server.Close()
	v.Close()
}

// Restart kills the member if it still runs and starts its spec again on
// the address it had bound. A group member always comes back as a standby
// — its journal knows the old epoch, so a bootstrap would be inert anyway
// — and is fenced, resynced or promoted by the ordinary protocol.
func (v *VManager) Restart() (*VManager, error) {
	v.Kill()
	return StartVManager(v.env, v.spec)
}
