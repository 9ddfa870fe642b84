package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeDeployment spawns the real deployment once and pushes a few
// hundred milliseconds of two workloads through it: the daemons come up on
// their ports, ops verify, the crash-and-restart durability check finds
// every acknowledged write, and nothing is left running afterwards.
func TestSmokeDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns eight daemons")
	}
	repo, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	bin, err := buildDaemon(repo, build)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanupAll)

	for _, name := range []string{"append_under_read", "bulk_write"} {
		r := &runner{bin: bin, runRoot: filepath.Join(build, "runs"), seed: 5, wl: findWorkload(name), log: t.Logf}
		e, st, took, err := r.setUp(false, nil)
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		ops, err := r.wl.round(e, st, 0)
		if err != nil {
			t.Fatalf("%s: round: %v", name, err)
		}
		rs := e.runRound(ops, 300*time.Millisecond)
		for c := range rs.ops {
			if rs.ops[c] == 0 || rs.failed[c] > 0 {
				t.Errorf("%s client %s: %d ops, %d failed (%v)", name, clientNames[c], rs.ops[c], rs.failed[c], rs.firstErr)
			}
		}
		if rs.cpu <= 0 || e.totalPeakRSS() == 0 {
			t.Errorf("%s: no CPU (%v) or RSS accounted from /proc", name, rs.cpu)
		}
		if name == "bulk_write" {
			lost, checked, err := r.checkDurability(e, st)
			if err != nil || lost != 0 || checked == 0 {
				t.Errorf("durability: %d of %d acknowledged writes lost after kill -9 (%v)", lost, checked, err)
			}
		}
		if err := e.dep.checkAlive(); err != nil {
			t.Error(err)
		}
		dir := e.dep.dir
		e.tearDown()
		if n, err := diskUsage(dir); err != nil || n > 64*kib {
			t.Errorf("%s: %d bytes (err %v) left in %s after tear-down; only empty directories may stay", name, n, err, dir)
		}
		t.Logf("%s: set-up %v, %d+%d ops", name, took, rs.ops[0], rs.ops[1])
	}
}
