package meta

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// Compile-time check: the DHT client satisfies the weave/descent Store.
var _ Store = (*Client)(nil)

// Client is the writer/reader-side view of the metadata DHT. It implements
// Store: puts fan out to the replica set of each node's key, gets try
// replicas in order. Because nodes are immutable, the optional client-side
// cache (§IV-A: "the benefits of metadata caching on the client side")
// never needs invalidation.
type Client struct {
	rpc         *rpc.Client
	ring        *dht.Ring
	replication int
	cache       *nodeCache

	// RPC accounting (monotonic): the batching refactor is a performance
	// claim, and these counters are what the tests and benchmarks assert
	// it on.
	statGets       metrics.Counter // GetNode's one-key meta.getnodes calls
	statBatchGets  metrics.Counter // GetNodes' batched meta.getnodes calls
	statPuts       metrics.Counter // meta.put calls (one per provider batch)
	statNodesIn    metrics.Counter // nodes received over the network
	statNodesOut   metrics.Counter // node replicas sent over the network
	statSpecHits   metrics.Counter // speculative same-label keys that resolved
	statSpecMisses metrics.Counter // speculative same-label keys that came back absent

	// specDepth is the adaptive same-label expansion depth (AIMD over the
	// per-round hit ratio; see observeSpec). Starts at specMaxDepth.
	specDepth atomic.Int64
}

// Adaptive speculation-depth constants: the expansion halves whenever a
// sufficiently large round misses more than half its guesses (the history
// under the read is fragmented, so deep same-label probes are wasted
// keys), and creeps back one level per near-perfect round. AIMD keeps the
// steady state near whatever depth the history actually supports.
const (
	specMaxDepth      = 62 // deeper than any real tree: effectively unbounded
	specAdaptMinRound = 16 // rounds with fewer guesses carry too little signal
)

// RPCStats is a snapshot of the metadata-plane RPCs a client has issued.
type RPCStats struct {
	GetRPCs      int64 // GetNode's one-key meta.getnodes calls
	GetNodesRPCs int64 // GetNodes' batched meta.getnodes calls
	PutRPCs      int64 // meta.put calls (one per provider batch)
	NodesFetched int64 // nodes received over the network
	NodesStored  int64 // node replicas sent over the network
	// SpecHits / SpecMisses count the batched descent's same-label
	// subtree expansion outcomes: a hit is a speculative key that
	// resolved (the subtree really was uniformly labeled), a miss one
	// that came back absent. A heavily fragmented version history shows
	// up as a low hit ratio — wasted key lookups, bounded but real — so
	// the waste is observable instead of inferred.
	SpecHits    int64
	SpecMisses  int64
	CacheHits   int64
	CacheMisses int64
}

// RPCStats reports the client's cumulative metadata RPC counts.
func (c *Client) RPCStats() RPCStats {
	s := RPCStats{
		GetRPCs:      c.statGets.Load(),
		GetNodesRPCs: c.statBatchGets.Load(),
		PutRPCs:      c.statPuts.Load(),
		NodesFetched: c.statNodesIn.Load(),
		NodesStored:  c.statNodesOut.Load(),
		SpecHits:     c.statSpecHits.Load(),
		SpecMisses:   c.statSpecMisses.Load(),
	}
	s.CacheHits, s.CacheMisses = c.CacheStats()
	return s
}

// observeSpec implements specObserver: the batched descent reports each
// round's same-label expansion outcomes here, and the adaptive depth
// reacts to them — multiplicative decrease on a majority-miss round,
// additive increase on a near-perfect one.
func (c *Client) observeSpec(hits, misses int64) {
	c.statSpecHits.Add(hits)
	c.statSpecMisses.Add(misses)
	n := hits + misses
	if n < specAdaptMinRound {
		return
	}
	d := c.specDepth.Load()
	switch {
	case misses*2 > n:
		nd := d / 2
		if nd < 1 {
			nd = 1 // keep probing one level, or the ratio could never recover
		}
		if nd != d {
			c.specDepth.CompareAndSwap(d, nd)
		}
	case misses*8 < n && d < specMaxDepth:
		c.specDepth.CompareAndSwap(d, d+1)
	}
}

// specExpansionDepth implements specDepthAdvisor for the batched descent.
func (c *Client) specExpansionDepth() int { return int(c.specDepth.Load()) }

// NewClient builds a metadata client over the given metadata provider
// addresses. replication is the number of replicas per node (clamped to
// the provider count, minimum 1). cacheNodes > 0 enables a client-side
// LRU cache of that many nodes.
func NewClient(rpcClient *rpc.Client, providers []string, replication, cacheNodes int) *Client {
	ring := dht.NewRing(0)
	for _, p := range providers {
		ring.Add(p)
	}
	if replication < 1 {
		replication = 1
	}
	var cache *nodeCache
	if cacheNodes > 0 {
		cache = newNodeCache(cacheNodes)
	}
	c := &Client{rpc: rpcClient, ring: ring, replication: replication, cache: cache}
	c.specDepth.Store(specMaxDepth)
	return c
}

// Replicas returns the replica set for a node key.
func (c *Client) Replicas(key NodeKey) []string {
	return c.ring.LookupN(key.Hash(), c.replication)
}

// putParallelism bounds concurrent per-provider RPCs within one batched
// metadata operation.
const putParallelism = 32

// PutNodesCtx stores every node of the batch in the DHT. Placement is still
// fine-grain — each node hashes independently onto the ring, exactly the
// distribution the paper relies on ("the tree nodes are distributed in a
// fine-grain manner among the metadata providers") — but the RPCs are
// not: nodes are grouped by replica address and each provider receives
// its whole share in one meta.put, so a weave of W nodes at replication R
// costs at most min(W, providers) × R round trips instead of W × R.
// Provider batches are issued in parallel with bounded fan-out.
//
// The durability contract is per node, unchanged: a node is durable when
// at least one replica accepted it; an error is returned only if some
// node could not be stored anywhere. A provider that rejects a batch
// application-side (e.g. one poisoned node in it) is retried node by
// node there, so one bad node cannot take its batch-mates' replicas down
// with it. ctx is the write's operation context (trace propagation).
func (c *Client) PutNodesCtx(ctx context.Context, nodes []*Node) error {
	if len(nodes) == 0 {
		return nil
	}
	if c.ring.Len() == 0 {
		return errors.New("meta: no metadata providers in ring")
	}
	batches := make(map[string][]*Node)
	for _, n := range nodes {
		for _, o := range c.Replicas(n.Key) {
			batches[o] = append(batches[o], n)
		}
	}
	// Deterministic order keeps retries and tests reproducible.
	addrs := make([]string, 0, len(batches))
	for a := range batches {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)

	var mu sync.Mutex
	landed := make(map[NodeKey]bool, len(nodes))
	var firstErr error
	sem := make(chan struct{}, putParallelism)
	var wg sync.WaitGroup
	for _, addr := range addrs {
		batch := batches[addr]
		wg.Add(1)
		sem <- struct{}{}
		go func(addr string, batch []*Node) {
			defer wg.Done()
			defer func() { <-sem }()
			c.statPuts.Add(1)
			c.statNodesOut.Add(int64(len(batch)))
			err := c.rpc.CallCtx(ctx, addr, MethodPutNodes, &PutNodesReq{Nodes: batch}, &Ack{})
			if err != nil && isRemoteErr(err) && len(batch) > 1 {
				// The provider is up but rejected the batch: isolate the
				// poisoned node(s) with singleton retries so the healthy
				// ones keep this replica.
				for _, n := range batch {
					c.statPuts.Add(1)
					c.statNodesOut.Add(1)
					if e := c.rpc.CallCtx(ctx, addr, MethodPutNodes, &PutNodesReq{Nodes: []*Node{n}}, &Ack{}); e == nil {
						mu.Lock()
						landed[n.Key] = true
						mu.Unlock()
					}
				}
			}
			mu.Lock()
			if err == nil {
				for _, n := range batch {
					landed[n.Key] = true
				}
			} else if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(addr, batch)
	}
	wg.Wait()

	// Verify every node landed on at least one replica.
	for _, n := range nodes {
		if !landed[n.Key] {
			return fmt.Errorf("meta: node %s lost all replicas: %w", n.Key, firstErr)
		}
	}
	c.cacheNodes(nodes)
	return nil
}

// PutNodes is PutNodesCtx with a background context.
func (c *Client) PutNodes(nodes []*Node) error {
	return c.PutNodesCtx(context.Background(), nodes)
}

// isRemoteErr reports whether err came back from a responding server's
// handler (as opposed to a transport failure).
func isRemoteErr(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re)
}

func (c *Client) cacheNodes(nodes []*Node) {
	if c.cache == nil {
		return
	}
	for _, n := range nodes {
		c.cache.put(n)
	}
}

// GetNode fetches a node, trying the cache first, then each replica, and
// finally — on a full miss — every remaining ring member, asking each
// with a one-key meta.getnodes (a reply of any other length counts as an
// unreachable member). The error is wrapped ErrNodeNotFound ONLY when
// every member of the ring responded and none had the node — a
// definitive absence. If anyone was unreachable, the transport error
// wins: callers like the GC liveness walk must be able to tell "the node
// does not exist" (a prunable hole) from "I could not check" (retry
// later), because confusing the two deletes live data. Consulting the whole ring before declaring absence
// also makes the destructive walk immune to a client configured with a
// smaller replication degree than the deployment's. Full misses are rare
// (a genuine hole means a crashed abort-repair), so the extra RPCs don't
// touch the hot path.
func (c *Client) GetNode(ctx context.Context, key NodeKey) (*Node, error) {
	if c.cache != nil {
		if n, ok := c.cache.get(key); ok {
			return n, nil
		}
	}
	owners := c.Replicas(key)
	if len(owners) == 0 {
		return nil, errors.New("meta: no metadata providers in ring")
	}
	tried := make(map[string]bool, len(owners))
	var transportErr error
	ask := func(addr string) *Node {
		tried[addr] = true
		c.statGets.Add(1)
		var resp GetNodesResp
		err := c.rpc.CallCtx(ctx, addr, MethodGetNodes, &GetNodesReq{Keys: []NodeKey{key}}, &resp)
		if err == nil && len(resp.Nodes) != 1 {
			err = fmt.Errorf("meta: getnodes at %s returned %d nodes for 1 key", addr, len(resp.Nodes))
		}
		if err != nil {
			transportErr = err
			return nil
		}
		n := resp.Nodes[0]
		if n == nil {
			return nil
		}
		c.statNodesIn.Add(1)
		if c.cache != nil {
			c.cache.put(n)
		}
		return n
	}
	for _, o := range owners {
		if n := ask(o); n != nil {
			return n, nil
		}
	}
	for _, o := range c.ring.Nodes() {
		if tried[o] {
			continue
		}
		if n := ask(o); n != nil {
			return n, nil
		}
	}
	if transportErr != nil {
		return nil, fmt.Errorf("meta: get %s: replica unreachable: %w", key, transportErr)
	}
	return nil, fmt.Errorf("%w: %s on all ring members", ErrNodeNotFound, key)
}

// PeekNodes implements Peeker over the client-side LRU cache: the
// batched descent drains everything the cache knows before paying for a
// network round, so a warm cache costs zero RPCs. Peek hits count as
// cache hits; misses are not counted here because the follow-up GetNodes
// re-consults the cache and records them once.
func (c *Client) PeekNodes(keys []NodeKey) []*Node {
	out := make([]*Node, len(keys))
	if c.cache == nil {
		return out
	}
	for i, k := range keys {
		if n, ok := c.cache.peek(k); ok {
			out[i] = n
		}
	}
	return out
}

// GetNodes fetches a batch of nodes (Store interface). The batch is
// served cache-first; the remainder is grouped by each key's primary
// owner and fetched with one meta.getnodes RPC per owner, issued in
// parallel — the frontier of a whole descent level costs O(providers)
// round trips, not O(keys). When a provider is unreachable, its share of
// the batch fails over to the next replica rank as a group, so a down
// provider costs one extra round, not one RPC per key.
//
// The result is aligned with keys; nil entries mark keys that were not
// retrieved (absent from every replica that responded, or all replicas
// unreachable). GetNodes never fails the call because keys are missing:
// the batched descent probes keys speculatively and absences are
// ordinary there. Callers that must distinguish a definitive hole from
// an unreachable replica follow up with GetNode on the specific key.
func (c *Client) GetNodes(ctx context.Context, keys []NodeKey) ([]*Node, error) {
	out := make([]*Node, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	if c.ring.Len() == 0 {
		return nil, errors.New("meta: no metadata providers in ring")
	}
	pending := make([]int, 0, len(keys))
	for i, k := range keys {
		if c.cache != nil {
			if n, ok := c.cache.get(k); ok {
				out[i] = n
				continue
			}
		}
		pending = append(pending, i)
	}
	misses := pending // request-index order; later ranks rebind pending, never write through it
	// Rank 0 asks each key's primary owner; keys whose RPC failed at the
	// transport level retry at the next replica rank. A key whose owner
	// RESPONDED without the node stays nil: replicas hold the same data,
	// and the rare genuinely-misplaced node is the caller's GetNode
	// follow-up, not a broadcast on the hot path.
	for rank := 0; len(pending) > 0 && rank < c.ring.Len(); rank++ {
		groups := make(map[string][]int)
		for _, i := range pending {
			owners := c.ring.LookupN(keys[i].Hash(), rank+1)
			if rank >= len(owners) {
				continue // fewer ring members than ranks: key stays nil
			}
			groups[owners[rank]] = append(groups[owners[rank]], i)
		}
		if len(groups) == 0 {
			break
		}
		var mu sync.Mutex
		var retry []int
		sem := make(chan struct{}, putParallelism)
		var wg sync.WaitGroup
		for addr, idxs := range groups {
			wg.Add(1)
			sem <- struct{}{}
			go func(addr string, idxs []int) {
				defer wg.Done()
				defer func() { <-sem }()
				req := &GetNodesReq{Keys: make([]NodeKey, len(idxs))}
				for j, i := range idxs {
					req.Keys[j] = keys[i]
				}
				c.statBatchGets.Add(1)
				var resp GetNodesResp
				err := c.rpc.CallCtx(ctx, addr, MethodGetNodes, req, &resp)
				mu.Lock()
				defer mu.Unlock()
				if err != nil || len(resp.Nodes) != len(idxs) {
					retry = append(retry, idxs...)
					return
				}
				for j, i := range idxs {
					if n := resp.Nodes[j]; n != nil {
						c.statNodesIn.Add(1)
						out[i] = n
					}
				}
			}(addr, idxs)
		}
		wg.Wait()
		pending = retry
	}
	// Cache the fetched nodes only now, in request-index order: inserting
	// from the fan-out goroutines as replies land would make what the LRU
	// evicts — and so every later hit, miss and fetch count — depend on
	// which provider answered first.
	if c.cache != nil {
		for _, i := range misses {
			if out[i] != nil {
				c.cache.put(out[i])
			}
		}
	}
	return out, nil
}

// DeleteNodes drops the given nodes from every metadata provider in the
// ring and returns the number of node copies actually dropped. The batch
// is broadcast to all members rather than routed by replica set: deletes
// must not depend on the sweeper knowing the deployment's exact
// replication degree (a sweeper configured with a lower degree would
// silently leave replicas behind), and servers drop only what they hold,
// so over-sending is just idempotent no-ops. Any unreachable member is
// reported as an error: dead nodes are by definition unreachable from
// every retained tree, so a sweep that advanced its frontier past a
// partial delete could never find them again — the caller must not
// record the sweep as complete until every member acknowledged.
func (c *Client) DeleteNodes(ctx context.Context, keys []NodeKey) (uint64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	members := c.ring.Nodes()
	if len(members) == 0 {
		return 0, errors.New("meta: no metadata providers in ring")
	}
	type result struct {
		deleted uint64
		err     error
	}
	results := make(chan result, len(members))
	sem := make(chan struct{}, putParallelism)
	for _, addr := range members {
		sem <- struct{}{}
		go func(addr string) {
			defer func() { <-sem }()
			var resp DeleteResp
			err := c.rpc.CallCtx(ctx, addr, MethodDeleteNodes, &DeleteNodesReq{Keys: keys}, &resp)
			results <- result{deleted: resp.Deleted, err: err}
		}(addr)
	}
	var deleted uint64
	var firstErr error
	for range members {
		r := <-results
		deleted += r.deleted
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	if firstErr != nil {
		return deleted, fmt.Errorf("meta: delete incomplete (retried next sweep): %w", firstErr)
	}
	return deleted, nil
}

// PatchReplicas rewrites leaf replica lists on every metadata provider in
// the ring and returns the number of leaf copies actually rewritten. Like
// DeleteNodes the batch is broadcast to all members rather than routed by
// replica set: a patch must not depend on the repair engine knowing the
// deployment's exact replication degree, and servers skip patches for
// leaves they do not hold, so over-sending is idempotent no-ops. An
// unreachable member is an error — its copies still carry the dead
// placement, so the caller (the repair engine) must re-patch on its next
// pass rather than record the repair as complete.
func (c *Client) PatchReplicas(ctx context.Context, patches []ReplicaPatch) (uint64, error) {
	if len(patches) == 0 {
		return 0, nil
	}
	members := c.ring.Nodes()
	if len(members) == 0 {
		return 0, errors.New("meta: no metadata providers in ring")
	}
	// The local cache must not keep serving the pre-patch placement.
	if c.cache != nil {
		for i := range patches {
			c.cache.evict(patches[i].Key)
		}
	}
	type result struct {
		patched uint64
		err     error
	}
	results := make(chan result, len(members))
	sem := make(chan struct{}, putParallelism)
	for _, addr := range members {
		sem <- struct{}{}
		go func(addr string) {
			defer func() { <-sem }()
			var resp PatchResp
			err := c.rpc.CallCtx(ctx, addr, MethodPatchReplicas, &PatchReplicasReq{Patches: patches}, &resp)
			results <- result{patched: resp.Patched, err: err}
		}(addr)
	}
	var patched uint64
	var firstErr error
	for range members {
		r := <-results
		patched += r.patched
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	if firstErr != nil {
		return patched, fmt.Errorf("meta: replica patch incomplete (retried next repair pass): %w", firstErr)
	}
	return patched, nil
}

// RefreshNode re-fetches a node from the ring, bypassing (and then
// refilling) the local cache. The read path calls this when every replica
// of a cached leaf failed: nodes are immutable EXCEPT for leaf replica
// lists, which the repair engine patches in place, so a total fetch
// failure is the one signal that a cached descriptor may be stale.
func (c *Client) RefreshNode(ctx context.Context, key NodeKey) (*Node, error) {
	if c.cache != nil {
		c.cache.evict(key)
	}
	return c.GetNode(ctx, key)
}

// DeleteBlob drops every node of the blob from every metadata provider in
// the ring (full blob deletion). Any unreachable member is an error so the
// blob's tombstone stays pending and the next sweep retries.
func (c *Client) DeleteBlob(ctx context.Context, blob uint64) (uint64, error) {
	nodes := c.ring.Nodes()
	if len(nodes) == 0 {
		return 0, errors.New("meta: no metadata providers in ring")
	}
	var deleted uint64
	var firstErr error
	for _, addr := range nodes {
		var resp DeleteResp
		if err := c.rpc.CallCtx(ctx, addr, MethodDeleteBlob, &DeleteBlobReq{Blob: blob}, &resp); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		deleted += resp.Deleted
	}
	if firstErr != nil {
		return deleted, fmt.Errorf("meta: blob delete incomplete (retried next sweep): %w", firstErr)
	}
	return deleted, nil
}

// CacheStats reports cache hits and misses (zeros when caching is off).
func (c *Client) CacheStats() (hits, misses int64) {
	if c.cache == nil {
		return 0, 0
	}
	return c.cache.stats()
}

// nodeCache is an LRU keyed by NodeKey. Nodes are immutable so entries
// never go stale.
type nodeCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List
	entries map[NodeKey]*list.Element
	hits    int64
	misses  int64
}

type cacheEnt struct {
	key  NodeKey
	node Node
}

func newNodeCache(capacity int) *nodeCache {
	return &nodeCache{cap: capacity, order: list.New(), entries: make(map[NodeKey]*list.Element)}
}

func (c *nodeCache) put(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[n.Key]; ok {
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEnt{key: n.Key, node: *n})
	c.entries[n.Key] = el
	for len(c.entries) > c.cap {
		back := c.order.Back()
		ent := back.Value.(*cacheEnt)
		c.order.Remove(back)
		delete(c.entries, ent.key)
	}
}

func (c *nodeCache) get(key NodeKey) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	n := el.Value.(*cacheEnt).node
	return &n, true
}

// peek is get without miss accounting: the batched descent probes the
// cache opportunistically and records the miss when it actually fetches.
func (c *nodeCache) peek(key NodeKey) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	n := el.Value.(*cacheEnt).node
	return &n, true
}

// evict drops one entry (replica-list patches invalidate cached leaves).
func (c *nodeCache) evict(key NodeKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

func (c *nodeCache) stats() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
