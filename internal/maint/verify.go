package maint

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// The verify action: the cluster-wide bit-rot scrubber.
//
// The read path only verifies chunks somebody reads; cold data can rot
// for months before a read trips over it — by which time every replica
// may have rotted. Verify closes that window: it drives the
// provider-local provider.scrub RPC (cursor + byte budget; payloads never
// cross the wire) across every live provider's whole inventory, sleeping
// between slices so aggregate verification I/O stays under
// Config.ScrubBytesPerSec and a background pass never competes with
// foreground I/O for more than its budget. Copies that fail verification
// are quarantined by the provider itself; the replicate action then
// treats them as lost replicas, re-replicates from a verified-good
// survivor, and deletes the bad copy. Legacy (pre-digest) chunks get
// their digests minted and journaled as the scrubber touches them, so one
// full pass converges an old deployment to fully verified.

// NoRateLimit disables scrub pacing (tests, or an operator-driven
// full-speed pass over an idle cluster).
const NoRateLimit = ^uint64(0)

// defaultScrubBytesPerSec is deliberately modest: a scrub is background
// work and a provider serving reads should barely notice it.
const defaultScrubBytesPerSec = 32 << 20

// scrubStepBytes is the per-RPC verification budget, matching the
// provider's own scrubDefaultBytes. Smaller steps would give the rate
// limiter a finer grain; each step is synchronous I/O on the provider.
const scrubStepBytes = 8 << 20

// verify scrubs every live provider's inventory, end to end,
// rate-limited. Per-provider errors don't stop the pass; the provider is
// retried next pass.
func (p *pass) verify() {
	for _, pr := range p.providers {
		if !pr.Live {
			continue
		}
		if err := p.scrubProvider(pr.Addr); err != nil {
			p.st[vmanager.ScrubErrors]++
			p.keep(fmt.Errorf("maint: scrubbing provider %s: %w", pr.Addr, err))
		}
	}
	p.st[vmanager.ScrubPasses]++
}

// scrubProvider walks one provider's inventory to completion, pacing
// between slices.
func (p *pass) scrubProvider(addr string) error {
	var cursor chunk.Key
	resume := false
	for {
		start := time.Now()
		resp, err := provider.Scrub(p.ctx, p.e.cfg.RPC, addr, cursor, resume, scrubStepBytes)
		if err != nil {
			return err
		}
		p.st[vmanager.ScrubScanned] += resp.Scanned
		p.st[vmanager.ScrubBytes] += resp.Bytes
		p.st[vmanager.ScrubCorruptFound] += resp.Corrupt
		p.st[vmanager.ScrubBackfilled] += resp.Backfilled
		if resp.Done {
			return nil
		}
		cursor, resume = resp.NextCursor, true
		p.e.pace(resp.Bytes, time.Since(start))
	}
}

// pace sleeps off the difference between how long the slice took and how
// long it should have taken at the configured rate.
func (e *Engine) pace(bytes uint64, took time.Duration) {
	if e.cfg.ScrubBytesPerSec == NoRateLimit || bytes == 0 {
		return
	}
	want := time.Duration(float64(bytes) / float64(e.cfg.ScrubBytesPerSec) * float64(time.Second))
	if want > took {
		e.cfg.sleep(want - took)
	}
}
