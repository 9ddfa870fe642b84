package rpc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// recordingObserver captures server-side observations for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	requests int
	errors   int
	panics   int
	bytesIn  int
	bytesOut int
	methods  map[string]int
}

func (o *recordingObserver) ObserveRequest(method string, bytesIn, bytesOut int, dur time.Duration, err error, panicked bool, _ uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.requests++
	o.bytesIn += bytesIn
	o.bytesOut += bytesOut
	if err != nil {
		o.errors++
	}
	if panicked {
		o.panics++
	}
	if o.methods == nil {
		o.methods = make(map[string]int)
	}
	o.methods[method]++
	if dur < 0 {
		panic("negative duration observed")
	}
}

type recordingClientObserver struct {
	mu      sync.Mutex
	calls   int
	errs    int
	redials int
}

func (o *recordingClientObserver) ObserveCall(addr, method string, dur time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls++
	if err != nil {
		o.errs++
	}
}

func (o *recordingClientObserver) ObserveRedial(addr string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.redials++
}

// TestHandlerPanicRecovered proves a panicking handler neither kills the
// process nor the connection: the caller gets a status-error frame naming
// the panic, the observer counts it, and the SAME connection keeps
// serving subsequent calls.
func TestHandlerPanicRecovered(t *testing.T) {
	network := NewSimNetwork(netsim.NewFabric(netsim.Config{}))
	srv := NewServer(network, "s")
	srv.Handle("explode", func(payload []byte) ([]byte, error) {
		panic("kaboom")
	})
	srv.Handle("echo", func(payload []byte) ([]byte, error) {
		return payload, nil
	})
	obs := &recordingObserver{}
	srv.SetObserver(obs)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	_, err := callRaw(cli, "s", "explode", []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError from panicking handler, got %v", err)
	}
	if !strings.Contains(re.Msg, "panicked") || !strings.Contains(re.Msg, "kaboom") {
		t.Fatalf("error does not name the panic: %q", re.Msg)
	}

	// The connection must still work — no redial, same cached conn.
	raw, err := callRaw(cli, "s", "echo", []byte("still alive"))
	if err != nil || string(raw) != "still alive" {
		t.Fatalf("connection did not survive the panic: %v %q", err, raw)
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.panics != 1 {
		t.Fatalf("observer panics: got %d want 1", obs.panics)
	}
	if obs.errors != 1 {
		t.Fatalf("observer errors: got %d want 1", obs.errors)
	}
	if obs.requests != 2 {
		t.Fatalf("observer requests: got %d want 2", obs.requests)
	}
}

// panicEncodeMsg's encoder panics after writing into the reply frame.
type panicEncodeMsg struct{}

func (*panicEncodeMsg) Encode(e *wire.Encoder) {
	e.PutU64(0xBADC0DE)
	panic("half-encoded reply")
}

func (*panicEncodeMsg) Decode(*wire.Decoder) {}

// TestReplyEncodePanicRecovered: replies are encoded straight into the
// response frame, so a reply whose encoder panics must still become a
// clean status-error frame (the half-written body dropped), and the
// connection must keep serving.
func TestReplyEncodePanicRecovered(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := NewServer(network, "s")
	HandleMsg(srv, "badreply", func() *echoMsg { return &echoMsg{} }, func(*echoMsg) (*panicEncodeMsg, error) {
		return &panicEncodeMsg{}, nil
	})
	HandleMsg(srv, "echo", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*echoMsg, error) {
		return req, nil
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 5*time.Second)
	defer cli.Close()

	err := cli.Call("s", "badreply", &echoMsg{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "half-encoded reply") {
		t.Fatalf("want RemoteError naming the encode panic, got %v", err)
	}
	var resp echoMsg
	if err := cli.Call("s", "echo", &echoMsg{N: 7, S: "ok"}, &resp); err != nil || resp.N != 7 || resp.S != "ok" {
		t.Fatalf("connection did not survive the encode panic: %v %+v", err, resp)
	}
}

// TestObserverSeesTraffic checks byte and method accounting on both ends,
// including the unknown-method error path.
func TestObserverSeesTraffic(t *testing.T) {
	network := NewSimNetwork(netsim.NewFabric(netsim.Config{}))
	srv := NewServer(network, "s")
	srv.Handle("double", func(payload []byte) ([]byte, error) {
		return append(payload, payload...), nil
	})
	sobs := &recordingObserver{}
	srv.SetObserver(sobs)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(network, 5*time.Second)
	defer cli.Close()
	cobs := &recordingClientObserver{}
	cli.SetObserver(cobs)

	if raw, err := callRaw(cli, "s", "double", []byte("abc")); err != nil || string(raw) != "abcabc" {
		t.Fatalf("double: %v %q", err, raw)
	}
	if _, err := callRaw(cli, "s", "nope", nil); err == nil {
		t.Fatal("unknown method must error")
	}

	sobs.mu.Lock()
	if sobs.requests != 2 || sobs.errors != 1 || sobs.panics != 0 {
		t.Fatalf("server observer: %+v", sobs)
	}
	if sobs.bytesIn != 3 || sobs.methods["double"] != 1 || sobs.methods["nope"] != 1 {
		t.Fatalf("server accounting: %+v", sobs)
	}
	sobs.mu.Unlock()

	cobs.mu.Lock()
	if cobs.calls != 2 || cobs.errs != 1 {
		t.Fatalf("client observer: %+v", cobs)
	}
	cobs.mu.Unlock()
}

// TestNoObserverNoClock sanity-checks the nil-observer fast path still
// serves correctly (the "no clock reads" property is structural; this
// guards the branch).
func TestNoObserverNoClock(t *testing.T) {
	network := NewSimNetwork(netsim.NewFabric(netsim.Config{}))
	srv := NewServer(network, "s")
	srv.Handle("echo", func(payload []byte) ([]byte, error) { return payload, nil })
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, time.Second)
	defer cli.Close()
	if raw, err := callRaw(cli, "s", "echo", []byte("ok")); err != nil || string(raw) != "ok" {
		t.Fatalf("nil-observer path: %v %q", err, raw)
	}
}
