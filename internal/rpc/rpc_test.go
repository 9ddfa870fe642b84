package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
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

// sendConn is a Conn that records each frame sent, flattened, and how
// often the reply under test had been released when it was sent.
type sendConn struct {
	resp           *releaseMsg
	frames         [][]byte
	releasedAtSend int
}

func (c *sendConn) Send(segs [][]byte) error {
	var msg []byte
	for _, s := range segs {
		msg = append(msg, s...)
	}
	c.frames = append(c.frames, msg[HeadRoom:])
	c.releasedAtSend += c.resp.released
	return nil
}

func (c *sendConn) Recv() ([]byte, error) { return nil, ErrClosed }
func (c *sendConn) Close() error          { return nil }

// TestInvokeReleasesEncodedReply: a reply that borrows pooled buffers is
// released exactly once, after its frame is sent (the frame may
// reference those buffers); a reply from a failed handler or a panicking
// encoder is never released (its buffers may still be referenced, and
// the garbage collector takes them).
func TestInvokeReleasesEncodedReply(t *testing.T) {
	for _, tc := range []struct {
		name   string
		resp   *releaseMsg
		err    error
		want   int
		status byte
	}{
		{"encoded", &releaseMsg{}, nil, 1, statusOK},
		{"handler error", &releaseMsg{}, errors.New("boom"), 0, statusError},
		{"encoder panic", &releaseMsg{panicEnc: true}, nil, 0, statusError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(NewSimNetwork(nil), "svc")
			srv.register("m", func([]byte) (wire.Message, error) { return tc.resp, tc.err })
			conn := &sendConn{resp: tc.resp}
			srv.dispatch(conn, 9, "m", nil, trace.SpanContext{})
			if len(conn.frames) != 1 {
				t.Fatalf("%d frames sent, want 1", len(conn.frames))
			}
			dec := wire.NewDecoder(conn.frames[0])
			if kind, id, status := dec.U8(), dec.U64(), dec.U8(); kind != kindResponse || id != 9 || status != tc.status {
				t.Fatalf("sent kind %d id %d status %d, want %d 9 %d", kind, id, status, kindResponse, tc.status)
			}
			if body := dec.Bytes(); tc.want == 1 && len(body) != 8 {
				t.Fatalf("sent a %d-byte body, want 8", len(body))
			}
			if conn.releasedAtSend != 0 {
				t.Fatal("reply released before its frame was sent")
			}
			if tc.resp.released != tc.want {
				t.Fatalf("released %d times, want %d", tc.resp.released, tc.want)
			}
		})
	}
}

// poisonMsg carries one payload field from a buffer its Release
// overwrites with 0xFF, as a pooled read buffer handed to the next
// reader would be.
type poisonMsg struct{ Data []byte }

func (m *poisonMsg) Encode(e *wire.Encoder) { e.Codec().Bytes(&m.Data) }
func (m *poisonMsg) Decode(d *wire.Decoder) { d.Codec().Bytes(&m.Data) }
func (m *poisonMsg) Release() {
	for i := range m.Data {
		m.Data[i] = 0xFF
	}
}

// payload returns n bytes of a pattern with no 0xFF in it.
func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// TestTCPReplySentBeforeRelease: a reply payload large enough to be
// sent from the reply's own buffer (referenced, not copied into the
// frame) reaches the client intact although Release overwrites that
// buffer: the server releases only once Send has written it.
func TestTCPReplySentBeforeRelease(t *testing.T) {
	network := NewTCPNetwork()
	srv := NewServer(network, "127.0.0.1:0")
	HandleMsg(srv, "get", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*poisonMsg, error) {
		return &poisonMsg{Data: payload(int(req.N))}, nil
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 10*time.Second)
	defer cli.Close()
	for _, n := range []int{refFrom, 64 << 10, 1 << 20} {
		var got poisonMsg
		if err := cli.Call(srv.Addr(), "get", &echoMsg{N: uint64(n)}, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, payload(n)) {
			t.Fatalf("%d-byte reply: the client got bytes its server released before sending", n)
		}
	}
}

// landMsg is a reply whose payload field, after a one-byte tag, may land
// in dst.
type landMsg struct {
	Tag  uint8
	Data []byte
	Tail uint64

	dst []byte
}

func (m *landMsg) Encode(e *wire.Encoder) { m.wire(e.Codec()) }
func (m *landMsg) Decode(d *wire.Decoder) { m.wire(d.Codec()) }
func (m *landMsg) wire(c *wire.Codec) {
	c.U8(&m.Tag)
	c.Land(&m.Data, m.dst)
	c.U64(&m.Tail)
}
func (m *landMsg) Lands() bool { return m.dst != nil }

// batchMsg is a reply of several payload fields, each after a one-byte
// tag, payload i landing in dst[i]: the shape of a batched chunk read.
type batchMsg struct {
	Data [][]byte

	dst [][]byte
}

func (m *batchMsg) Encode(e *wire.Encoder) { m.wire(e.Codec()) }
func (m *batchMsg) Decode(d *wire.Decoder) { m.wire(d.Codec()) }
func (m *batchMsg) wire(c *wire.Codec) {
	n := len(m.Data)
	c.Count(&n, wire.MaxCount)
	wire.Make(c, &m.Data, n)
	for i := range n {
		tag := uint8(7)
		c.U8(&tag)
		var dst []byte
		if i < len(m.dst) {
			dst = m.dst[i]
		}
		c.Land(&m.Data[i], dst)
	}
}
func (m *batchMsg) Lands() bool { return m.dst != nil }

// TestReplyLandsInCallerBuffer: over TCP a reply's payload that fits the
// caller's buffer is read straight into it (the decoded field aliases
// dst); one that does not fit, and every reply over SimNetwork, decodes
// from the frame as before. The fields around the payload survive
// either way, and an error reply to a landing call is still an error.
func TestReplyLandsInCallerBuffer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		addr    string
		lands   bool
	}{
		{"tcp", NewTCPNetwork(), "127.0.0.1:0", true},
		{"sim", NewSimNetwork(nil), "svc", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(tc.network, tc.addr)
			HandleMsg(srv, "get", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*landMsg, error) {
				if req.N == 0 {
					return nil, errors.New("no such payload")
				}
				return &landMsg{Tag: 7, Data: payload(int(req.N)), Tail: req.N}, nil
			})
			HandleMsg(srv, "batch", func() *echoMsg { return &echoMsg{} }, func(*echoMsg) (*batchMsg, error) {
				return &batchMsg{Data: [][]byte{payload(64 << 10), payload(64<<10 + 1), payload(4 << 10)}}, nil
			})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli := NewClient(tc.network, 10*time.Second)
			defer cli.Close()
			for _, n := range []int{1, 4 << 10, 64 << 10, 64<<10 + 1} {
				dst := make([]byte, 64<<10)
				resp := landMsg{dst: dst}
				if err := cli.Call(srv.Addr(), "get", &echoMsg{N: uint64(n)}, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Tag != 7 || resp.Tail != uint64(n) || !bytes.Equal(resp.Data, payload(n)) {
					t.Fatalf("%d bytes: tag %d tail %d, payload intact %v", n, resp.Tag, resp.Tail, bytes.Equal(resp.Data, payload(n)))
				}
				landed := &resp.Data[0] == &dst[0]
				if want := tc.lands && n <= len(dst); landed != want {
					t.Fatalf("%d bytes into a %d-byte buffer: landed %v, want %v", n, len(dst), landed, want)
				}
			}
			err := cli.Call(srv.Addr(), "get", &echoMsg{}, &landMsg{dst: make([]byte, 16)})
			var re *RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "no such payload") {
				t.Fatalf("error reply to a landing call: %v", err)
			}

			// A batch: every payload that fits lands in its own buffer.
			sizes := []int{64 << 10, 64<<10 + 1, 4 << 10}
			dsts := [][]byte{make([]byte, 64<<10), make([]byte, 64<<10), make([]byte, 64<<10)}
			batch := batchMsg{dst: dsts}
			if err := cli.Call(srv.Addr(), "batch", &echoMsg{}, &batch); err != nil {
				t.Fatal(err)
			}
			for i, n := range sizes {
				if !bytes.Equal(batch.Data[i], payload(n)) {
					t.Fatalf("batch payload %d (%d bytes) not intact", i, n)
				}
				landed := &batch.Data[i][0] == &dsts[i][0]
				if want := tc.lands && n <= len(dsts[i]); landed != want {
					t.Fatalf("batch payload %d, %d bytes into %d: landed %v, want %v", i, n, len(dsts[i]), landed, want)
				}
			}
		})
	}
}

// TestLandingBufferUntouchedAfterTimeout: a landing call that times out
// before its reply arrives leaves the caller's buffer alone when the
// reply comes in later.
func TestLandingBufferUntouchedAfterTimeout(t *testing.T) {
	network := NewTCPNetwork()
	srv := NewServer(network, "127.0.0.1:0")
	replied := make(chan struct{})
	HandleMsg(srv, "get", func() *echoMsg { return &echoMsg{} }, func(req *echoMsg) (*landMsg, error) {
		time.Sleep(200 * time.Millisecond)
		defer close(replied)
		return &landMsg{Data: payload(64 << 10)}, nil
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 50*time.Millisecond)
	defer cli.Close()
	dst := bytes.Repeat([]byte{0xFF}, 64<<10)
	if err := cli.Call(srv.Addr(), "get", &echoMsg{}, &landMsg{dst: dst}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	<-replied
	time.Sleep(100 * time.Millisecond) // let the late reply reach the client
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xFF}, 64<<10)) {
		t.Fatal("a late reply wrote the buffer of a call that had timed out")
	}
}

// TestLandingCallTimesOutMidPayload: a reply whose payload stalls
// halfway into the caller's buffer — a lone payload, or the second of a
// batch whose first landed whole — does not outlive the call's timeout:
// the call cuts the connection and returns ErrTimeout, and nothing
// writes any of its buffers after that, though the rest of the reply is
// sent once the call has returned.
func TestLandingCallTimesOutMidPayload(t *testing.T) {
	const n = 64 << 10
	for _, tc := range []struct {
		name     string
		payloads int
	}{{"one", 1}, {"batch", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			returned := make(chan struct{})
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				var hdr [4]byte
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					return
				}
				req := make([]byte, binary.BigEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(c, req); err != nil {
					return
				}
				// A landMsg (tag, payload, tail) or a batchMsg (count,
				// then tag and payload each); all but the last half
				// payload goes out before the call gives up.
				var body []byte
				if tc.payloads == 1 {
					body = append(body, 7)
					body = binary.LittleEndian.AppendUint32(body, n)
					body = append(body, payload(n)...)
					body = binary.LittleEndian.AppendUint64(body, 1)
				} else {
					body = binary.LittleEndian.AppendUint32(body, uint32(tc.payloads))
					for range tc.payloads {
						body = append(body, 7)
						body = binary.LittleEndian.AppendUint32(body, n)
						body = append(body, payload(n)...)
					}
				}
				msg := binary.BigEndian.AppendUint32(nil, uint32(replyHead+len(body)))
				msg = append(msg, kindResponse)
				msg = append(msg, req[1:9]...) // the call id
				msg = append(msg, statusOK)
				msg = binary.LittleEndian.AppendUint32(msg, uint32(len(body)))
				msg = append(msg, body...)
				cut := len(msg) - n/2 - 8*(2-tc.payloads)
				c.Write(msg[:cut])
				<-returned
				c.Write(msg[cut:])
				io.Copy(io.Discard, c)
			}()
			cli := NewClient(NewTCPNetwork(), 100*time.Millisecond)
			defer cli.Close()
			dsts := make([][]byte, tc.payloads)
			for i := range dsts {
				dsts[i] = bytes.Repeat([]byte{0xFF}, n)
			}
			var resp wire.Message = &batchMsg{dst: dsts}
			if tc.payloads == 1 {
				resp = &landMsg{dst: dsts[0]}
			}
			done := make(chan error, 1)
			go func() { done <- cli.Call(l.Addr().String(), "get", &echoMsg{}, resp) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("err = %v, want a timeout", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a call whose payload stalled mid-read outlived its timeout")
			}
			var seen [][]byte
			for _, d := range dsts {
				seen = append(seen, bytes.Clone(d))
			}
			close(returned)
			time.Sleep(100 * time.Millisecond) // let the rest of the reply arrive, were anyone reading it
			for i, d := range dsts {
				if !bytes.Equal(d, seen[i]) {
					t.Fatalf("buffer %d was written after the call returned", i)
				}
			}
			if last := dsts[len(dsts)-1]; !bytes.Equal(last[n/2:], bytes.Repeat([]byte{0xFF}, n/2)) {
				t.Fatal("the payload that stalled halfway filled its buffer")
			}
		})
	}
}

// BenchmarkTCPCall64K is one call per op over TCP loopback whose reply
// carries a 64 KiB payload from a fixed buffer, landed in the caller's
// buffer: a chunk read's rpc and transfer cost, with no chunk store and
// no digest.
func BenchmarkTCPCall64K(b *testing.B) {
	network := NewTCPNetwork()
	srv := NewServer(network, "127.0.0.1:0")
	data := payload(64 << 10)
	HandleMsg(srv, "get", func() *echoMsg { return &echoMsg{} }, func(*echoMsg) (*landMsg, error) {
		return &landMsg{Tag: 7, Data: data}, nil
	})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 10*time.Second)
	defer cli.Close()
	dst := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := landMsg{dst: dst}
		if err := cli.Call(srv.Addr(), "get", &echoMsg{}, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTCPFramesAcrossStageSizes sends frames of sizes around the receive
// stage's bounds back to back, some as several segments, and receives
// each intact: the staging reads that stop short of a large frame's body
// must never lose or reorder a byte across frames.
func TestTCPFramesAcrossStageSizes(t *testing.T) {
	network := NewTCPNetwork()
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sizes := []int{0, 1, 4, 100, stageAhead, stageSize - 1, stageSize, stageSize + 1, 64 << 10, 5, 1 << 20, 3, stageSize/2 + 1, 64<<10 + 24}
	go func() {
		c, err := network.Dial(l.Addr())
		if err != nil {
			return
		}
		defer c.Close()
		for i, n := range sizes {
			msg := payload(n + i)[i:]
			segs := [][]byte{append(make([]byte, HeadRoom), msg[:n/3]...)}
			if n > 0 {
				segs = append(segs, msg[n/3:2*n/3], msg[2*n/3:])
			}
			if err := c.Send(segs); err != nil {
				return
			}
		}
	}()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, n := range sizes {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d (%d bytes): %v", i, n, err)
		}
		if !bytes.Equal(got, payload(n + i)[i:]) {
			t.Fatalf("frame %d: %d bytes that are not the %d sent", i, len(got), n)
		}
	}
}
