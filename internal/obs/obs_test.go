package obs_test

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestClusterMetricsScrape boots a full deployment with the metrics plane
// on, drives traffic through every role, then scrapes /metrics over real
// HTTP and asserts (a) the exposition is well-formed Prometheus text and
// (b) every role shows up: per-method RPC latency histograms for
// vmanager/metadata/provider servers, client round-trips, and the plane
// counters (GC, lease, WAL, provider inventory, pmanager membership).
func TestClusterMetricsScrape(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		MetricsListen: "127.0.0.1:0",
		LeaseTTL:      time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Registry() == nil {
		t.Fatal("MetricsListen must imply an active registry")
	}

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := blob.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := blob.Read(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Append(payload[:1<<10]); err != nil {
		t.Fatal(err)
	}

	// Healthz first.
	base := "http://" + c.MetricsAddr()
	hres, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hres.Body)
	hres.Body.Close()
	if hres.StatusCode != 200 || strings.TrimSpace(string(hbody)) != "ok" {
		t.Fatalf("/healthz: %d %q", hres.StatusCode, hbody)
	}

	res, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type: %q", ct)
	}
	out := string(body)

	assertWellFormed(t, out)

	// Every role's RPC server histograms, by role label.
	for _, role := range []string{"vmanager", "metadata", "provider", "pmanager"} {
		want := fmt.Sprintf(`blobseer_rpc_server_request_seconds_bucket{role=%q,method=`, role)
		if !strings.Contains(out, want) {
			t.Errorf("no server RPC latency series for role %s", role)
		}
	}
	// Client-side round trips from the core client.
	if !strings.Contains(out, `blobseer_rpc_client_roundtrip_seconds_bucket{role="client",method=`) {
		t.Error("no client round-trip series")
	}

	// Plane counters from every subsystem.
	for _, fam := range []string{
		"blobseer_gc_pending_blobs",
		"blobseer_lease_active",
		"blobseer_lease_ttl_seconds",
		"blobseer_pm_providers_live",
		"blobseer_pm_provider_fullness{provider=",
		"blobseer_provider_chunks{instance=",
		"blobseer_provider_bytes_in_total{instance=",
		"blobseer_meta_nodes{instance=",
		"blobseer_client_chunk_bytes_out_total{instance=",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}

	// The traffic we drove must be visible: at least one provider.get and
	// one vm.create observed server-side.
	if !regexp.MustCompile(`blobseer_rpc_server_request_seconds_count\{role="provider",method="[^"]+"\} [1-9]`).MatchString(out) {
		t.Error("provider RPC histogram never incremented")
	}
}

// assertWellFormed parses the exposition line by line: every sample line
// must match the text-format grammar, every family must declare HELP and
// TYPE before its first sample, and histogram buckets must be cumulative
// with a terminal +Inf.
func assertWellFormed(t *testing.T, out string) {
	t.Helper()
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?(Inf|[0-9].*))$`)
	declared := map[string]bool{}
	var lines int
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		lines++
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			declared[parts[2]] = true
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !declared[name] && !declared[base] {
			t.Fatalf("sample %q has no preceding HELP/TYPE", name)
		}
	}
	if lines < 20 {
		t.Fatalf("suspiciously small exposition (%d lines):\n%s", lines, out)
	}
}

// Every WAL in a durable deployment exports its costs under the shared
// blobseer_wal_* families — the provider sidecars too, one series per
// provider instance.
func TestProviderSidecarWALExported(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 2, MetaProviders: 1, Metrics: true, DataDir: t.TempDir()})
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
	if _, err := blob.Write(make([]byte, 4<<10), 0); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := c.Registry().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, addr := range c.ProviderAddrs() {
		for _, fam := range []string{"blobseer_wal_appends_total", "blobseer_wal_syncs_total"} {
			re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s\{instance=%q\} [1-9]`, fam, addr))
			if !re.MatchString(out.String()) {
				t.Errorf("no non-zero %s series for provider %s", fam, addr)
			}
		}
	}
}
