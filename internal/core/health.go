package core

import (
	"cmp"
	"slices"
	"sync"
)

// providerHealth is the client-side quality-of-service feedback of §IV-E:
// an EWMA of observed per-provider operation cost (latency plus a penalty
// for failures). The read path orders replicas by this score, so a
// degraded-but-alive provider stops being the first choice after a few
// slow operations — without any global coordination.
type providerHealth struct {
	mu    sync.Mutex
	score map[string]float64
}

// ewmaWeight is the weight of the newest observation.
const ewmaWeight = 0.3

// errPenaltyMs is the cost (in milliseconds) charged for a failed op.
const errPenaltyMs = 500

func newProviderHealth() *providerHealth {
	return &providerHealth{score: make(map[string]float64)}
}

// observe folds one operation's outcome into the provider's score.
func (h *providerHealth) observe(addr string, ms float64, failed bool) {
	if addr == "" {
		return
	}
	if failed {
		ms += errPenaltyMs
	}
	h.mu.Lock()
	old, ok := h.score[addr]
	if !ok {
		h.score[addr] = ms
	} else {
		h.score[addr] = (1-ewmaWeight)*old + ewmaWeight*ms
	}
	h.mu.Unlock()
}

// order returns addrs sorted healthiest-first, in a copy. Providers never
// observed score 0 (optimistic: they get probed). The sort is stable so
// placement order breaks ties.
func (h *providerHealth) order(addrs []string) []string {
	if len(addrs) < 2 {
		return addrs
	}
	out := slices.Clone(addrs)
	h.mu.Lock()
	slices.SortStableFunc(out, func(a, b string) int { return cmp.Compare(h.score[a], h.score[b]) })
	h.mu.Unlock()
	return out
}
