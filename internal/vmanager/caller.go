package vmanager

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// Caller routes version-manager RPCs to the current leader of a
// replicated group. Clients, the GC sweeper and the repair engine all go
// through it: a single-address deployment is a zero-overhead passthrough
// (no HA, no behavior change), while a multi-address one follows typed
// redirects for free and rides out failovers by probing every node with
// vm.whoisleader under jittered backoff until a new leader answers.
type Caller struct {
	rpc   RPCCaller
	addrs []string

	// window bounds how long one call chases a failover before giving
	// up — comfortably past a leadership TTL plus takeover stagger.
	window time.Duration

	mu      sync.Mutex
	leader  string // last address that served us successfully
	backoff rpc.Backoff
}

// RPCCaller is the subset of rpc.Client the Caller needs.
type RPCCaller interface {
	CallCtx(ctx context.Context, addr, method string, req, resp wire.Message) error
}

// redirectBudget bounds redirect-chasing within one attempt, so two
// confused nodes pointing at each other cannot loop a call forever.
const redirectBudget = 4

// NewCaller builds a Caller over the given addresses (at least one).
func NewCaller(rc RPCCaller, addrs []string) *Caller {
	return &Caller{
		rpc:     rc,
		addrs:   addrs,
		window:  15 * time.Second,
		backoff: rpc.Backoff{Base: 25 * time.Millisecond, Cap: 500 * time.Millisecond},
	}
}

// Addrs returns the configured version-manager addresses.
func (c *Caller) Addrs() []string { return c.addrs }

// Primary returns the best current guess at the leader's address, for
// display and for callers that need a concrete address (never empty).
func (c *Caller) Primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader != "" {
		return c.leader
	}
	return c.addrs[0]
}

func (c *Caller) noteLeader(addr string) {
	c.mu.Lock()
	c.leader = addr
	c.mu.Unlock()
}

// Call invokes a version-manager method at whoever currently leads.
// Application errors (the remote handler rejecting the request) pass
// through untouched — only transport failures and redirects engage the
// failover machinery. A traced ctx attributes every RPC of the call —
// including any failover probing and redirect-chasing — to its trace.
func (c *Caller) Call(ctx context.Context, method string, req, resp wire.Message) error {
	if len(c.addrs) == 1 {
		return c.rpc.CallCtx(ctx, c.addrs[0], method, req, resp)
	}
	target := c.Primary()
	deadline := time.Now().Add(c.window)
	redirects := 0
	for attempt := 0; ; attempt++ {
		err := c.rpc.CallCtx(ctx, target, method, req, resp)
		if err == nil {
			c.noteLeader(target)
			return nil
		}
		var rd *rpc.Redirect
		if errors.As(err, &rd) {
			// A redirect with a destination is followed immediately and
			// free of charge — the standby told us exactly where to go.
			if rd.Target != "" && redirects < redirectBudget {
				redirects++
				target = rd.Target
				c.noteLeader(target)
				continue
			}
			// No hint (mid-election) or a loop: fall through to probing.
		} else {
			var re *rpc.RemoteError
			if errors.As(err, &re) {
				return err
			}
		}
		if !time.Now().Before(deadline) {
			return err
		}
		time.Sleep(c.backoff.Delay(attempt))
		redirects = 0
		if leader := c.probe(ctx); leader != "" {
			target = leader
		} else {
			// Nobody claims leadership yet: rotate through the group so
			// a node whose claim we cannot hear still gets asked.
			target = c.addrs[attempt%len(c.addrs)]
		}
	}
}

// probe asks every node who leads and adopts the highest-epoch claim —
// a first-hand "I am the leader" beats hearsay only at the same (or a
// higher) epoch. A deposed-but-not-yet-fenced leader still answering
// first-hand at a stale epoch must not override a standby's report of
// the real, newer leader.
func (c *Caller) probe(ctx context.Context) string {
	best := ""
	var bestEpoch uint64
	bestFirstHand := false
	for _, addr := range c.addrs {
		var r WhoIsLeaderResp
		if err := c.rpc.CallCtx(ctx, addr, MethodWhoIsLeader, &Ack{}, &r); err != nil {
			continue
		}
		switch {
		case r.IsLeader && (r.Epoch > bestEpoch || (!bestFirstHand && r.Epoch >= bestEpoch)):
			best, bestEpoch, bestFirstHand = addr, r.Epoch, true
		case r.Leader != "" && r.Epoch > bestEpoch:
			// Hearsay, but of a strictly newer epoch than anything heard
			// so far — including a first-hand claim, which a newer epoch
			// has by definition deposed.
			best, bestEpoch, bestFirstHand = r.Leader, r.Epoch, false
		}
	}
	if best != "" {
		c.noteLeader(best)
	}
	return best
}
