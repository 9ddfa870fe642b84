package vmanager

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// fakeRing answers vm.whoisleader with canned views per address; any
// address without a view is unreachable.
type fakeRing struct {
	views map[string]WhoIsLeaderResp
}

func (f *fakeRing) CallCtx(_ context.Context, addr, method string, req, resp wire.Message) error {
	if method != MethodWhoIsLeader {
		return errors.New("fakeRing: unexpected method " + method)
	}
	v, ok := f.views[addr]
	if !ok {
		return errors.New("fakeRing: " + addr + " unreachable")
	}
	*resp.(*WhoIsLeaderResp) = v
	return nil
}

// A deposed-but-not-yet-fenced leader still answers first-hand at its
// stale epoch. A standby's hearsay of the real, newer leader must win —
// in either probe order — or clients get routed into the dual-leader
// window.
func TestProbeStaleFirstHandClaimLosesToNewerHearsay(t *testing.T) {
	views := map[string]WhoIsLeaderResp{
		"X": {Self: "X", IsLeader: true, Leader: "X", Epoch: 5},
		"Y": {Self: "Y", Leader: "Z", Epoch: 9},
	}
	for _, addrs := range [][]string{{"X", "Y"}, {"Y", "X"}} {
		c := NewCaller(&fakeRing{views: views}, addrs)
		if got := c.probe(context.Background()); got != "Z" {
			t.Errorf("probe(order %v) = %q, want Z (stale first-hand claim beat newer hearsay)", addrs, got)
		}
	}
}

// At the same epoch, a first-hand "I am the leader" beats hearsay
// whichever answer arrives first.
func TestProbeFirstHandBeatsHearsayAtSameEpoch(t *testing.T) {
	views := map[string]WhoIsLeaderResp{
		"X": {Self: "X", Leader: "W", Epoch: 7},
		"Y": {Self: "Y", IsLeader: true, Leader: "Y", Epoch: 7},
	}
	for _, addrs := range [][]string{{"X", "Y"}, {"Y", "X"}} {
		c := NewCaller(&fakeRing{views: views}, addrs)
		if got := c.probe(context.Background()); got != "Y" {
			t.Errorf("probe(order %v) = %q, want first-hand Y", addrs, got)
		}
	}
}

// Two first-hand claims (the takeover-race window): the higher epoch
// wins regardless of order; unreachable nodes are skipped.
func TestProbeHigherEpochFirstHandWins(t *testing.T) {
	views := map[string]WhoIsLeaderResp{
		"X": {Self: "X", IsLeader: true, Leader: "X", Epoch: 5},
		"Y": {Self: "Y", IsLeader: true, Leader: "Y", Epoch: 9},
	}
	for _, addrs := range [][]string{{"X", "Y", "dead"}, {"dead", "Y", "X"}} {
		c := NewCaller(&fakeRing{views: views}, addrs)
		if got := c.probe(context.Background()); got != "Y" {
			t.Errorf("probe(order %v) = %q, want Y (epoch 9)", addrs, got)
		}
	}
}

// The probe shape and cursor fields added for takeover recency checks
// must survive the wire round trip.
func TestHAMessageRoundTripProbeFields(t *testing.T) {
	req := ReplicateReq{
		Epoch: 7, Leader: "L", Session: 9, Seq: 11, Probe: true,
		Records: [][]byte{{1}, {2, 3}},
	}
	e := wire.NewEncoder(64)
	req.Encode(e)
	var gotReq ReplicateReq
	d := wire.NewDecoder(e.Bytes())
	gotReq.Decode(d)
	if d.Err() != nil || !reflect.DeepEqual(req, gotReq) {
		t.Errorf("ReplicateReq round trip: got %+v (err %v), want %+v", gotReq, d.Err(), req)
	}

	resp := ReplicateResp{
		AckSeq: 5, Epoch: 8, Leader: "X",
		IsLeader: true, Synced: true, Session: 42, AppliedSeq: 17,
	}
	e = wire.NewEncoder(64)
	resp.Encode(e)
	var gotResp ReplicateResp
	d = wire.NewDecoder(e.Bytes())
	gotResp.Decode(d)
	if d.Err() != nil || !reflect.DeepEqual(resp, gotResp) {
		t.Errorf("ReplicateResp round trip: got %+v (err %v), want %+v", gotResp, d.Err(), resp)
	}

	st := HAStatusResp{
		Self: "A", Enabled: true, Role: "leader", Epoch: 3, Leader: "A",
		Session: 1, StreamSeq: 2, Takeovers: 1, Fences: 0, NoQuorumCommits: 4,
		Standbys: []StandbyStatus{{Addr: "B", Synced: true, AckSeq: 2}},
	}
	e = wire.NewEncoder(64)
	st.Encode(e)
	var gotSt HAStatusResp
	d = wire.NewDecoder(e.Bytes())
	gotSt.Decode(d)
	if d.Err() != nil || !reflect.DeepEqual(st, gotSt) {
		t.Errorf("HAStatusResp round trip: got %+v (err %v), want %+v", gotSt, d.Err(), st)
	}
}
