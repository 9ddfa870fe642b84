package maint

import (
	"context"
	"errors"
	"testing"

	"repro/internal/vmanager"
	"repro/internal/wire"
)

// flakyVM serves vm.maintreport straight into a Manager, failing while
// down is set.
type flakyVM struct {
	mgr  *vmanager.Manager
	down bool
}

func (f *flakyVM) CallCtx(_ context.Context, addr, method string, req, resp wire.Message) error {
	if f.down {
		return errors.New("vm unreachable")
	}
	if method != vmanager.MethodMaintReport {
		return errors.New("unexpected method " + method)
	}
	f.mgr.MaintReport(req.(*vmanager.Counters))
	return nil
}

// Every action reports through the one pending-delta merge: a pass whose
// vm.maintreport fails parks its delta, and the next successful report
// delivers it — once — on top of that pass's own.
func TestPendingDeltaSurvivesFailedReport(t *testing.T) {
	for i, action := range actionNames {
		t.Run(action, func(t *testing.T) {
			vm := &flakyVM{mgr: vmanager.NewManager()}
			d := testDeployment(t)
			d.VM = vmanager.NewCaller(vm, []string{"vm"})
			e, err := New(Config{Deployment: d})
			if err != nil {
				t.Fatal(err)
			}
			// One pass's worth of every counter the action owns.
			var lost, next, want vmanager.Counters
			for id, def := range vmanager.CounterTable {
				if def.Plane == actionPlanes[i] {
					lost[id], next[id] = uint64(id)+1, 100
					want[id] = lost[id] + next[id]
				}
			}
			vm.down = true
			if err := e.report(context.Background(), &lost); err == nil {
				t.Fatal("report against an unreachable vmanager succeeded")
			}
			if got := vm.mgr.MaintStats(); *got != (vmanager.Counters{}) {
				t.Fatalf("failed report reached the manager: %v", got)
			}
			vm.down = false
			if err := e.report(context.Background(), &next); err != nil {
				t.Fatal(err)
			}
			// The manager owns the journaled GC totals (fed by vm.gcreport
			// only) and computes the pending gauge: a report never moves them.
			for id := vmanager.GCChunks; id <= vmanager.GCPending; id++ {
				want[id] = 0
			}
			if got := vm.mgr.MaintStats(); *got != want {
				t.Errorf("totals after the retried report:\n got %v\nwant %v", got, want)
			}
			// Nothing is left parked: an empty report changes nothing.
			if err := e.report(context.Background(), &vmanager.Counters{}); err != nil {
				t.Fatal(err)
			}
			if got := vm.mgr.MaintStats(); *got != want {
				t.Errorf("parked delta delivered twice: %v", got)
			}
		})
	}
}
