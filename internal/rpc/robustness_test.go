package rpc

import (
	"testing"
	"time"
)

// A server must survive malformed frames: garbage bytes, truncated
// headers, and wrong frame kinds must be dropped without killing the
// connection or the process.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	network := NewSimNetwork(nil)
	srv := NewServer(network, "svc")
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := network.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, garbage := range [][]byte{
		{},
		{0xFF},
		{0x00, 0x01},
		[]byte("complete nonsense that is not a frame"),
		{kindResponse, 0, 0, 0, 0, 0, 0, 0, 0}, // response sent to a server
	} {
		if err := conn.Send(frame(garbage)); err != nil {
			t.Fatalf("send garbage: %v", err)
		}
	}
	// The connection (and server) must still serve well-formed requests.
	cli := NewClient(network, 2*time.Second)
	defer cli.Close()
	resp, err := callRaw(cli, "svc", "echo", []byte("alive?"))
	if err != nil || string(resp) != "alive?" {
		t.Fatalf("after garbage: %q, %v", resp, err)
	}
}

// frame wraps msg as the one segment Conn.Send takes.
func frame(msg []byte) [][]byte {
	return [][]byte{append(make([]byte, HeadRoom), msg...)}
}

// A client read loop must survive garbage pushed by a rogue server, on
// both transports (TCP reads reply heads piecewise, see recvLanding).
func TestClientSurvivesGarbageResponses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		addr    string
	}{
		{"sim", NewSimNetwork(nil), "rogue"},
		{"tcp", NewTCPNetwork(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.network.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				// Reply to everything with garbage, then with a valid
				// response.
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					conn.Send(frame([]byte{0xDE, 0xAD}))
					// Parse the request id so one valid response can
					// unblock it.
					d := newEnvelope(msg)
					if d == nil {
						continue
					}
					conn.Send(frame(d[:len(d)-4])) // a truncated body
					conn.Send(frame(d))
				}
			}()
			cli := NewClient(tc.network, 2*time.Second)
			defer cli.Close()
			resp, err := callRaw(cli, l.Addr(), "anything", []byte("ping"))
			if err != nil || string(resp) != "pong" {
				t.Fatalf("resp = %q, %v", resp, err)
			}
		})
	}
}

// newEnvelope decodes a request frame and builds a valid "pong" response
// for it (helper for the rogue server above).
func newEnvelope(msg []byte) []byte {
	// Frame: kind u8 | id u64 | method string | payload bytes
	if len(msg) < 9 || msg[0] != kindRequest {
		return nil
	}
	id := msg[1:9]
	out := []byte{kindResponse}
	out = append(out, id...)
	out = append(out, statusOK)
	out = append(out, 4, 0, 0, 0) // u32 len prefix (little endian)
	out = append(out, []byte("pong")...)
	return out
}

func TestDuplicateHandlerPanics(t *testing.T) {
	srv := NewServer(NewSimNetwork(nil), "svc")
	srv.Handle("m", func(p []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	srv.Handle("m", func(p []byte) ([]byte, error) { return nil, nil })
}

func TestListenTwiceFails(t *testing.T) {
	network := NewSimNetwork(nil)
	if _, err := network.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Listen("x"); err == nil {
		t.Fatal("second listen on same address succeeded")
	}
}
