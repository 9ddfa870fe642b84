package maint

import (
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// testDeployment wires a Deployment over an empty simulated network: enough
// for construction and pacing units, which never issue an RPC.
func testDeployment(t *testing.T) Deployment {
	t.Helper()
	cli := rpc.NewClient(rpc.NewSimNetwork(nil), 0)
	t.Cleanup(cli.Close)
	return Deployment{
		RPC:  cli,
		Meta: meta.NewClient(cli, []string{"mp0"}, 1, 0),
		VM:   vmanager.NewCaller(cli, []string{"vm"}),
		PM:   "pm",
	}
}

// One validation for the one Deployment: every field is required, and the
// action defaults apply.
func TestNewValidatesConfig(t *testing.T) {
	full := testDeployment(t)
	for name, strip := range map[string]func(*Deployment){
		"RPC client":               func(d *Deployment) { d.RPC = nil },
		"metadata client":          func(d *Deployment) { d.Meta = nil },
		"version manager caller":   func(d *Deployment) { d.VM = nil },
		"provider manager address": func(d *Deployment) { d.PM = "" },
	} {
		d := full
		strip(&d)
		if _, err := New(Config{Deployment: d}); err == nil {
			t.Errorf("New without %s succeeded", name)
		}
	}
	e, err := New(Config{Deployment: full})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.ScrubBytesPerSec != defaultScrubBytesPerSec || e.cfg.OrphanGrace != 5*time.Minute ||
		e.cfg.HighWater != 0.85 || e.cfg.LowWater != 0.85*0.8 || e.cfg.MaxMoveBytes != 1<<30 {
		t.Errorf("defaults not applied: %+v", e.cfg)
	}
}

// pace must sleep off exactly the rate-limit deficit: a slice that
// finished early sleeps the difference, a slow one doesn't sleep at all,
// and NoRateLimit never sleeps.
func TestPaceSleepsOffDeficit(t *testing.T) {
	var slept time.Duration
	e, err := New(Config{
		Deployment:       testDeployment(t),
		ScrubBytesPerSec: 1 << 20, // 1 MiB/s
		sleep:            func(d time.Duration) { slept += d },
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1 MiB verified instantaneously at 1 MiB/s: owe ~1 s.
	e.pace(1<<20, 0)
	if slept < 900*time.Millisecond || slept > time.Second {
		t.Errorf("slept %v for a 1 MiB instant slice at 1 MiB/s, want ~1s", slept)
	}

	// A slice that already took longer than its budget owes nothing.
	slept = 0
	e.pace(1<<20, 2*time.Second)
	if slept != 0 {
		t.Errorf("slow slice slept %v, want 0", slept)
	}

	// Zero bytes (all-corrupt or empty slice) owes nothing.
	e.pace(0, 0)
	if slept != 0 {
		t.Errorf("empty slice slept %v, want 0", slept)
	}

	// NoRateLimit disables pacing entirely.
	e.cfg.ScrubBytesPerSec = NoRateLimit
	e.pace(64<<20, 0)
	if slept != 0 {
		t.Errorf("NoRateLimit slept %v, want 0", slept)
	}
}
