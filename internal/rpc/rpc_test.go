package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// echoMsg is a trivial wire.Message for transport tests.
type echoMsg struct {
	N uint64
	S string
}

func (m *echoMsg) Encode(e *wire.Encoder) {
	e.PutU64(m.N)
	e.PutString(m.S)
}

func (m *echoMsg) Decode(d *wire.Decoder) {
	m.N = d.U64()
	m.S = d.String()
}

// callRaw sends payload as an opaque wire.Raw body and returns the raw
// reply body.
func callRaw(cli *Client, addr, method string, payload []byte) ([]byte, error) {
	req, resp := wire.Raw(payload), wire.Raw(nil)
	err := cli.CallCtx(context.Background(), addr, method, &req, &resp)
	return resp, err
}

func startEchoServer(t *testing.T, network Network, addr string) *Server {
	t.Helper()
	srv := NewServer(network, addr)
	HandleMsg(srv, "echo", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*echoMsg, error) {
		return &echoMsg{N: req.N + 1, S: strings.ToUpper(req.S)}, nil
	})
	HandleMsg(srv, "fail", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*echoMsg, error) {
		return nil, fmt.Errorf("boom %d", req.N)
	})
	srv.Handle("slow", func(payload []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return payload, nil
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func testBasicRoundTrip(t *testing.T, network Network, addr string) {
	t.Helper()
	srv := startEchoServer(t, network, addr)
	cli := NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)

	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{N: 41, S: "hi"}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.N != 42 || resp.S != "HI" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestSimRoundTrip(t *testing.T) {
	testBasicRoundTrip(t, NewSimNetwork(nil), "svc")
}

func TestTCPRoundTrip(t *testing.T) {
	testBasicRoundTrip(t, NewTCPNetwork(), "127.0.0.1:0")
}

func TestRemoteError(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	err := cli.Call(srv.Addr(), "fail", &echoMsg{N: 7}, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "boom 7") {
		t.Errorf("remote msg = %q", re.Msg)
	}
	// Remote errors must not poison the connection.
	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{N: 1, S: "x"}, &resp); err != nil {
		t.Fatalf("call after remote error: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	err := cli.Call(srv.Addr(), "nope", &echoMsg{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "no handler") {
		t.Fatalf("err = %v, want no-handler RemoteError", err)
	}
}

func TestDialUnknownAddr(t *testing.T) {
	network := NewSimNetwork(nil)
	cli := NewClient(network, time.Second)
	defer cli.Close()
	err := cli.Call("ghost", "echo", &echoMsg{}, nil)
	if !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		addr    string
	}{
		{"sim", NewSimNetwork(nil), "svc"},
		{"tcp", NewTCPNetwork(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startEchoServer(t, tc.network, tc.addr)
			cli := NewClient(tc.network, 10*time.Second)
			defer cli.Close()

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for i := 0; i < 64; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var resp echoMsg
					err := cli.Call(srv.Addr(), "echo", &echoMsg{N: uint64(i), S: "s"}, &resp)
					if err == nil && resp.N != uint64(i)+1 {
						err = fmt.Errorf("resp.N = %d for req %d", resp.N, i)
					}
					errs <- err
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		cli.Call(srv.Addr(), "slow", &echoMsg{}, nil)
	}()
	start := time.Now()
	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{N: 1, S: "a"}, &resp); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("fast call waited %v behind slow handler", elapsed)
	}
	<-done
}

func TestCallTimeout(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 50*time.Millisecond)
	defer cli.Close()

	err := cli.Call(srv.Addr(), "slow", &echoMsg{}, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	// Prime the connection.
	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{}, &resp); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- cli.Call(srv.Addr(), "slow", &echoMsg{}, nil)
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	if err := <-errCh; err == nil {
		t.Fatal("in-flight call survived server close")
	}
}

func TestRedialAfterServerRestart(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 2*time.Second)
	defer cli.Close()

	var resp echoMsg
	if err := cli.Call("svc", "echo", &echoMsg{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := cli.Call("svc", "echo", &echoMsg{N: 2}, &resp); err == nil {
		t.Fatal("call to closed server succeeded")
	}
	// Restart on the same address; the client must re-dial transparently.
	startEchoServer(t, network, "svc")
	if err := cli.Call("svc", "echo", &echoMsg{N: 3}, &resp); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if resp.N != 4 {
		t.Errorf("resp.N = %d, want 4", resp.N)
	}
}

func TestSimNetworkDownNode(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{})
	network := NewSimNetwork(fabric)
	startEchoServer(t, network, "svc")
	cli := NewClient(network, time.Second)
	defer cli.Close()

	fabric.SetDown("svc", true)
	err := cli.Call("svc", "echo", &echoMsg{}, nil)
	if err == nil {
		t.Fatal("call to down node succeeded")
	}
	fabric.SetDown("svc", false)
	var resp echoMsg
	if err := cli.Call("svc", "echo", &echoMsg{N: 1, S: "y"}, &resp); err != nil {
		t.Fatalf("call after node recovery: %v", err)
	}
}

func TestFabricShapedLatency(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{Latency: 30 * time.Millisecond})
	network := NewSimNetwork(fabric)
	srv := startEchoServer(t, network, "svc")
	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	start := time.Now()
	var resp echoMsg
	if err := cli.Call(srv.Addr(), "echo", &echoMsg{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	// one request + one response leg => at least ~60ms
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Errorf("round trip %v, want >= 60ms of injected latency", elapsed)
	}
}

func BenchmarkSimCall(b *testing.B) {
	network := NewSimNetwork(nil)
	srv := NewServer(network, "svc")
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 10*time.Second)
	defer cli.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := callRaw(cli, "svc", "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	network := NewTCPNetwork()
	srv := NewServer(network, "127.0.0.1:0")
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 10*time.Second)
	defer cli.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := callRaw(cli, srv.Addr(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// releaseMsg counts its Release calls; its encoder panics when told to.
type releaseMsg struct {
	released int
	panicEnc bool
}

func (m *releaseMsg) Encode(e *wire.Encoder) {
	if m.panicEnc {
		panic("encode")
	}
	e.PutU64(7)
}

func (m *releaseMsg) Decode(*wire.Decoder) {}

func (m *releaseMsg) Release() { m.released++ }

// TestInvokeReleasesEncodedReply: a reply that borrows pooled buffers is
// released exactly once, after it is encoded into the frame; a reply from
// a failed handler or a panicking encoder is never released (its buffers
// may still be referenced, and the garbage collector takes them).
func TestInvokeReleasesEncodedReply(t *testing.T) {
	for _, tc := range []struct {
		name string
		resp *releaseMsg
		err  error
		want int
	}{
		{"encoded", &releaseMsg{}, nil, 1},
		{"handler error", &releaseMsg{}, errors.New("boom"), 0},
		{"encoder panic", &releaseMsg{panicEnc: true}, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := func([]byte) (wire.Message, error) { return tc.resp, tc.err }
			enc := wire.NewEncoder(0)
			n, err, _ := invoke(h, "m", nil, enc)
			if tc.want == 1 && (err != nil || n != 8) {
				t.Fatalf("invoke = %d, %v; want an 8-byte body", n, err)
			}
			if tc.resp.released != tc.want {
				t.Fatalf("released %d times, want %d", tc.resp.released, tc.want)
			}
		})
	}
}
