package obs_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// A served RPC that carries a sampled trace pins that trace's id as the
// exemplar of its blobseer_rpc_server_request_seconds bucket; an unsampled
// one leaves no exemplar.
func TestServerExemplarIsSampledTraceID(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.SetExemplars(true)
	rpcm := obs.NewRPCMetrics(reg)
	rec := trace.NewRecorder(0, 0)

	network := rpc.NewSimNetwork(netsim.NewFabric(netsim.Config{}))
	srv := rpc.NewServer(network, "srv")
	for _, method := range []string{"sampled", "unsampled"} {
		srv.Handle(method, func([]byte) ([]byte, error) { return nil, nil })
	}
	srv.SetObserver(rpcm.ServerObserver("test"))
	srv.SetTracer(trace.New("test", "srv", rec, 1, time.Minute))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := rpc.NewClient(network, time.Second)
	defer cli.Close()
	cli.SetTracer(trace.New("client", "cli", rec, 1, time.Minute))

	const sampledID, unsampledID = 0x5a5a0001, 0x5a5a0002
	for method, sc := range map[string]trace.SpanContext{
		"sampled":   {Trace: sampledID, Span: 1, Sampled: true},
		"unsampled": {Trace: unsampledID, Span: 2},
	} {
		ctx := trace.NewContext(context.Background(), sc)
		if err := cli.CallCtx(ctx, "srv", method, &provider.Ack{}, nil); err != nil {
			t.Fatalf("%s call: %v", method, err)
		}
	}

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	exemplars := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		for _, method := range []string{"sampled", "unsampled"} {
			prefix := fmt.Sprintf(`blobseer_rpc_server_request_seconds_bucket{role="test",method=%q,`, method)
			if _, ex, ok := strings.Cut(line, " # "); ok && strings.HasPrefix(line, prefix) {
				exemplars[method] = append(exemplars[method], ex)
			}
		}
	}
	want := fmt.Sprintf(`{trace_id="%016x"}`, sampledID)
	if got := exemplars["sampled"]; len(got) != 1 || !strings.HasPrefix(got[0], want) {
		t.Errorf("sampled request's exemplars = %q, want one %s", got, want)
	}
	if got := exemplars["unsampled"]; len(got) != 0 {
		t.Errorf("unsampled request left exemplars %q, want none", got)
	}
}
