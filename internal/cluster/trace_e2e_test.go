package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/maint"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/vmanager"
)

// traceOf returns all spans sharing the trace of the newest span with
// the given role+method, plus that trace id (0 when none exists).
func traceOf(rec *trace.Recorder, role, method string) ([]*trace.Span, uint64) {
	var newest *trace.Span
	for _, sp := range rec.Spans(0, false) {
		if sp.Role == role && sp.Method == method &&
			(newest == nil || sp.Start > newest.Start) {
			newest = sp
		}
	}
	if newest == nil {
		return nil, 0
	}
	return rec.Spans(newest.Trace, false), newest.Trace
}

// rolesOf buckets a span set's distinct node names per role.
func rolesOf(spans []*trace.Span) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, sp := range spans {
		if out[sp.Role] == nil {
			out[sp.Role] = make(map[string]bool)
		}
		out[sp.Role][sp.Node] = true
	}
	return out
}

// The tentpole acceptance scenario: a sampled cold read of a 256-chunk
// blob must record — under ONE trace id — the client's root span, the
// version resolve on the vmanager, the metadata descent on at least one
// meta node, and chunk fetches on at least two providers.
func TestTracePropagationColdRead(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		TraceSample:   1, // sample everything: the test must see spans
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Traces() == nil {
		t.Fatal("tracing recorder missing with TraceSample=1")
	}

	writer, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize, chunks = 4 << 10, 256
	blob, err := writer.CreateBlob(chunkSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, chunkSize*chunks)
	if _, err := blob.Write(payload, 0); err != nil {
		t.Fatal(err)
	}

	// Cold read: a fresh client with an empty metadata cache, so the
	// descent really walks the ring instead of hitting cached nodes.
	reader, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rblob, err := reader.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := rblob.Read(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read returned wrong bytes")
	}

	spans, id := traceOf(c.Traces(), "client", "core.read")
	if id == 0 {
		t.Fatal("no core.read root span recorded")
	}
	roles := rolesOf(spans)
	t.Logf("trace %016x: %d spans across roles %v", id, len(spans), roles)
	if len(roles["client"]) < 1 {
		t.Errorf("trace %016x has no client span", id)
	}
	if len(roles["vmanager"]) < 1 {
		t.Errorf("trace %016x has no vmanager span (version resolve untraced)", id)
	}
	if len(roles["metadata"]) < 1 {
		t.Errorf("trace %016x has no metadata span (descent untraced)", id)
	}
	if len(roles["provider"]) < 2 {
		t.Errorf("trace %016x touched %d providers, want >= 2 (chunk fetches untraced)",
			id, len(roles["provider"]))
	}
	// Every non-root span must hang off a parent within the same trace —
	// a broken parent link would shatter the waterfall.
	ids := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %s/%s %016x has dangling parent %016x", sp.Role, sp.Method, sp.ID, sp.Parent)
		}
	}
}

// A trace must survive the two control-plane disruptions: a vmanager
// failover (the client follows a not-leader redirect to the new leader,
// which must still record under the caller's trace id) and a metadata
// restart-in-place (the replacement server must get a tracer re-attached,
// not come back silent).
func TestTracePropagationAcrossFailoverAndRestart(t *testing.T) {
	const ttl = 1500 * time.Millisecond
	c, err := cluster.Start(cluster.Config{
		DataProviders:   3,
		MetaProviders:   2,
		DataDir:         t.TempDir(),
		NoFsyncWAL:      true,
		VMStandbys:      1,
		VMLeadershipTTL: ttl,
		TraceSample:     1,
		CallTimeout:     10 * time.Second,
		// Keep starved heartbeats from aging providers out mid-failover
		// under -race; this test is about tracing, not liveness.
		HeartbeatTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 4<<10)
	if _, err := blob.Write(payload, 0); err != nil {
		t.Fatal(err)
	}

	lead := c.LeaderIndex()
	if lead < 0 {
		t.Fatal("no leader elected")
	}
	c.KillVMIndex(lead)

	// First write to succeed after the kill rode the failover: the
	// client probed/redirected to the new leader mid-trace.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := blob.Write(payload, 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never resumed after leader kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	spans, id := traceOf(c.Traces(), "client", "core.write")
	if id == 0 {
		t.Fatal("no core.write root span after failover")
	}
	roles := rolesOf(spans)
	if len(roles["vmanager"]) < 1 {
		t.Errorf("post-failover trace %016x has no vmanager span (redirect dropped the context)", id)
	}
	t.Logf("post-failover trace %016x: %d spans, vmanager nodes %v", id, len(spans), roles["vmanager"])

	// Restart-in-place: both metadata providers and one data provider
	// get replacement servers; their tracers must be re-attached.
	for i := 0; i < 2; i++ {
		c.KillMeta(i)
		if err := c.RestartMeta(i); err != nil {
			t.Fatal(err)
		}
	}
	c.KillProvider(0)
	if err := c.ReviveProvider(0); err != nil {
		t.Fatal(err)
	}

	// A fresh client's cold read must show metadata + provider spans
	// from the restarted servers.
	reader, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rblob, err := reader.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	readOnce := func() error {
		_, err := rblob.Read(0, got, 0)
		return err
	}
	// The revived provider may need a heartbeat round before reads
	// settle; retry briefly rather than flake.
	for err := readOnce(); err != nil; err = readOnce() {
		if time.Now().After(deadline) {
			t.Fatalf("read never succeeded after restarts: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	spans, id = traceOf(c.Traces(), "client", "core.read")
	if id == 0 {
		t.Fatal("no core.read root span after restarts")
	}
	roles = rolesOf(spans)
	if len(roles["metadata"]) < 1 {
		t.Errorf("post-restart trace %016x has no metadata span (tracer not re-attached)", id)
	}
	if len(roles["provider"]) < 1 {
		t.Errorf("post-restart trace %016x has no provider span", id)
	}
	t.Logf("post-restart trace %016x: %d spans, roles %v", id, len(spans), roles)
}

// Background planes have no caller to inherit a trace from, so each loop
// iteration opens one root and every RPC it issues joins it: a replicate
// pass is one trace, its calls children of the pass span, the servers'
// spans beneath them — not one parentless trace per call.
func TestBackgroundPlanesOriginateRootTraces(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		TraceSample:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Write(bytes.Repeat([]byte{1}, 4<<10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Maint.Run(maint.Replicate); err != nil {
		t.Fatal(err)
	}
	var passRoot *trace.Span
	for _, sp := range c.Traces().Spans(0, false) {
		if sp.Role != "maint" || sp.Parent != 0 {
			continue
		}
		if sp.Method != "maint.replicate" || passRoot != nil {
			t.Errorf("parentless maint span %s besides the pass root", sp.Method)
			continue
		}
		passRoot = sp
	}
	if passRoot == nil {
		t.Fatal("replicate pass recorded no maint.replicate root span")
	}
	var children, servers int
	for _, sp := range c.Traces().Spans(passRoot.Trace, false) {
		switch {
		case sp.Role == "maint" && sp.Parent == passRoot.ID:
			children++
		case sp.Role != "maint":
			servers++
		}
	}
	if children == 0 {
		t.Error("the pass root has no RPC child spans")
	}
	if servers == 0 {
		t.Errorf("pass trace %016x has no server-side spans", passRoot.Trace)
	}
}

// An expired lease's server-side weave is one loop iteration too: every
// meta.put it issues shares one root, the lease plane's own span.
func TestBackgroundPlanesLeaseExpiryWeaveIsOneTrace(t *testing.T) {
	const leaseTTL = 100 * time.Millisecond
	c, err := cluster.Start(cluster.Config{
		DataProviders:   1,
		MetaProviders:   2,
		MetaReplication: 2, // every node goes to both: at least two meta.put calls
		LeaseTTL:        leaseTTL,
		TraceSample:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A writer takes an 8-chunk version and vanishes.
	raw := rpc.NewClient(c.Network, 0)
	defer raw.Close()
	var assign vmanager.AssignResp
	if err := raw.Call(c.VMAddr(), vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: blob.ID(), Size: 8 << 10}, &assign); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * leaseTTL)
	for {
		vi, err := c.VM.Manager().VersionInfo(blob.ID(), assign.Version)
		if err != nil {
			t.Fatal(err)
		}
		if vi.Failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("version %d not expired %v after Assign", assign.Version, 20*leaseTTL)
		}
		time.Sleep(leaseTTL / 4)
	}
	traces := make(map[uint64]bool)
	puts := 0
	for _, sp := range c.Traces().Spans(0, false) {
		if sp.Role == "lease" && sp.Method == "meta.put" {
			puts++
			traces[sp.Trace] = true
		}
	}
	if puts < 2 || len(traces) != 1 {
		t.Fatalf("expiry weave: %d meta.put spans across %d traces, want >= 2 in one", puts, len(traces))
	}
	for id := range traces {
		var roots []string
		for _, sp := range c.Traces().Spans(id, false) {
			if sp.Parent == 0 {
				roots = append(roots, sp.Role+"/"+sp.Method)
			}
		}
		if len(roots) != 1 || roots[0] != "lease/vm.expirelease" {
			t.Errorf("expiry weave trace roots = %v, want [lease/vm.expirelease]", roots)
		}
	}
}
