package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// notOwner is a handler error implementing the redirector contract, the
// test double for vmanager.NotLeaderError.
type notOwner struct{ target string }

func (e *notOwner) Error() string          { return "not the owner" }
func (e *notOwner) RedirectTarget() string { return e.target }

func TestRedirectCrossesWireTyped(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := NewServer(network, "svc")
	HandleMsg(srv, "go-away", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*echoMsg, error) {
		return nil, &notOwner{target: "leader:1"}
	})
	HandleMsg(srv, "go-somewhere", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*echoMsg, error) {
		return nil, &notOwner{}
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli := NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)

	err := cli.Call(srv.Addr(), "go-away", &echoMsg{}, nil)
	var rd *Redirect
	if !errors.As(err, &rd) {
		t.Fatalf("err = %v, want Redirect", err)
	}
	if rd.Target != "leader:1" || rd.Method != "go-away" {
		t.Errorf("redirect = %+v, want target leader:1 method go-away", rd)
	}

	// A redirect without a destination still crosses as a Redirect (the
	// caller falls back to probing), not as a flattened RemoteError.
	err = cli.Call(srv.Addr(), "go-somewhere", &echoMsg{}, nil)
	rd = nil
	if !errors.As(err, &rd) || rd.Target != "" {
		t.Fatalf("err = %v, want empty-target Redirect", err)
	}

	// Redirects must not poison the connection.
	var resp echoMsg
	srvEcho := startEchoServer(t, network, "echo-svc")
	if err := cli.Call(srvEcho.Addr(), "echo", &echoMsg{N: 1, S: "x"}, &resp); err != nil {
		t.Fatalf("call after redirect: %v", err)
	}
}

func TestGateRejectsBeforeHandler(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	handlerRan := false
	srv.Handle("gated", func(payload []byte) ([]byte, error) {
		handlerRan = true
		return payload, nil
	})
	srv.SetGate(func(method string) error {
		if method == "gated" {
			return &notOwner{target: "leader:2"}
		}
		return nil
	})
	cli := NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)

	err := cli.Call(srv.Addr(), "gated", &echoMsg{}, nil)
	var rd *Redirect
	if !errors.As(err, &rd) || rd.Target != "leader:2" {
		t.Fatalf("err = %v, want Redirect to leader:2", err)
	}
	if handlerRan {
		t.Error("gated handler ran despite the gate rejecting")
	}
	// Ungated methods pass through the same gate untouched.
	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{N: 1, S: "a"}, &resp); err != nil {
		t.Fatalf("ungated call: %v", err)
	}
}

func TestBackoffJitteredExponentialCapped(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	ceilings := []time.Duration{
		10 * time.Millisecond, // attempt 0
		20 * time.Millisecond, // 1
		40 * time.Millisecond, // 2
		80 * time.Millisecond, // 3
		80 * time.Millisecond, // 4: capped
		80 * time.Millisecond, // 10: still capped
	}
	attempts := []int{0, 1, 2, 3, 4, 10}
	for i, attempt := range attempts {
		for trial := 0; trial < 50; trial++ {
			d := b.Delay(attempt)
			if d <= 0 || d > ceilings[i] {
				t.Fatalf("Delay(%d) = %v, want in (0, %v]", attempt, d, ceilings[i])
			}
		}
	}

	// Full jitter: draws from the same attempt must not all collide (the
	// thundering-herd property). 20 draws over a 80ms ceiling colliding on
	// one value is astronomically unlikely.
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		seen[b.Delay(5)] = true
	}
	if len(seen) < 2 {
		t.Errorf("Delay(5) produced %d distinct values over 20 draws, want jitter", len(seen))
	}

	// Zero-value Backoff uses the documented defaults.
	var zero Backoff
	for i := 0; i < 20; i++ {
		if d := zero.Delay(0); d <= 0 || d > 10*time.Millisecond {
			t.Fatalf("zero-value Delay(0) = %v, want in (0, 10ms]", d)
		}
	}
}

func TestRedirectErrorString(t *testing.T) {
	rd := &Redirect{Method: "vm.assign", Target: "h1:4400", Msg: "not the leader"}
	s := rd.Error()
	for _, want := range []string{"vm.assign", "h1:4400", "not the leader"} {
		if !strings.Contains(s, want) {
			t.Errorf("Error() = %q, missing %q", s, want)
		}
	}
}
