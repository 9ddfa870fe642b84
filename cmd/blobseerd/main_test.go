package main_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// buildDaemon compiles blobseerd once per test into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "blobseerd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building blobseerd: %v", err)
	}
	return bin
}

var addrRe = regexp.MustCompile(`serving at (\S+)`)

// spawnDaemon starts one blobseerd process and waits for it to report its
// serving address. The process is SIGKILLed at test cleanup if still
// running.
func spawnDaemon(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	deadline := time.After(10 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, cmd
	case <-deadline:
		t.Fatalf("daemon %v did not report its address", args)
		return "", nil
	}
}

// Spawns a real multi-process deployment — version manager, provider
// manager, two metadata providers, two disk-backed data providers, each a
// separate OS process talking TCP — and runs a client against it. This is
// the end-to-end proof that the system is not an in-process artifact.
func TestMultiProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test is not -short")
	}
	bin := buildDaemon(t)

	vm, _ := spawnDaemon(t, bin, "-role", "vmanager", "-listen", "127.0.0.1:0")
	pm, _ := spawnDaemon(t, bin, "-role", "pmanager", "-listen", "127.0.0.1:0",
		"-heartbeat-timeout", "5s")
	mp1, _ := spawnDaemon(t, bin, "-role", "metadata", "-listen", "127.0.0.1:0")
	mp2, _ := spawnDaemon(t, bin, "-role", "metadata", "-listen", "127.0.0.1:0")
	for i := 0; i < 2; i++ {
		spawnDaemon(t, bin, "-role", "provider", "-listen", "127.0.0.1:0",
			"-pm", pm, "-store", "disk",
			"-dir", filepath.Join(t.TempDir(), fmt.Sprintf("chunks%d", i)),
			"-heartbeat", "200ms")
	}

	client, err := core.NewClient(core.Config{
		Network:       rpc.NewTCPNetwork(),
		VMAddr:        vm,
		PMAddr:        pm,
		MetaProviders: []string{mp1, mp2},
		CallTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	blob, err := client.CreateBlob(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("multi-process!"), 2048)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Append(data[:4096]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := blob.Read(v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-process round trip mismatch")
	}
	size, err := blob.Size(0)
	if err != nil || size != uint64(len(data)+4096) {
		t.Fatalf("size = %d, %v", size, err)
	}
}

// Maintenance runs in role=maint alone. A vmanager command line that still
// schedules it must fail at start, naming where it belongs, instead of
// serving without ever collecting garbage.
func TestVManagerRefusesMaintenanceFlags(t *testing.T) {
	out := refusal(t, buildDaemon(t), "-role", "vmanager", "-listen", "127.0.0.1:0",
		"-gc-interval", "1m", "-pm", "127.0.0.1:1", "-meta", "127.0.0.1:2")
	if !strings.Contains(out, "-role maint") || !strings.Contains(out, "-gc-interval") {
		t.Fatalf("refusal does not name -gc-interval and -role maint:\n%s", out)
	}
}

// refusal runs blobseerd with args and returns its output, failing the
// test unless the daemon exits non-zero on its own within 10 s.
func refusal(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || ctx.Err() != nil {
		t.Fatalf("%v: want a non-zero exit, got err=%v; output:\n%s", args, err, out)
	}
	return string(out)
}

// Every role refuses a flag it does not read: the daemon exits 2 before
// starting anything, naming the role that reads it.
func TestRolesRefuseForeignFlags(t *testing.T) {
	bin := buildDaemon(t)
	cases := map[string]struct {
		args        []string
		flag, owner string
	}{
		"vmanager": {[]string{"-listen", "127.0.0.1:0", "-capacity-mb", "64"}, "-capacity-mb", "-role provider"},
		"pmanager": {[]string{"-listen", "127.0.0.1:0", "-lease-ttl", "10s"}, "-lease-ttl", "-role vmanager"},
		"metadata": {[]string{"-listen", "127.0.0.1:0", "-heartbeat-timeout=5s"}, "-heartbeat-timeout", "-role pmanager"},
		"provider": {[]string{"-listen", "127.0.0.1:0", "-pm", "127.0.0.1:1", "-lease-ttl", "10s"}, "-lease-ttl", "-role vmanager"},
		"maint": {[]string{"-vm", "127.0.0.1:1", "-pm", "127.0.0.1:1", "-meta", "127.0.0.1:1", "-gc-interval", "1m",
			"-listen", "127.0.0.1:0"}, "-listen", "-role vmanager"},
	}
	for role, tc := range cases {
		t.Run(role, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-role", role}, tc.args...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || ctx.Err() != nil {
				t.Fatalf("%v: want exit status 2 before starting, got err=%v; output:\n%s", args, err, out)
			}
			if !strings.Contains(string(out), tc.flag+" is a flag of ") || !strings.Contains(string(out), tc.owner) {
				t.Fatalf("refusal does not say that %s is a flag of %s:\n%s", tc.flag, tc.owner, out)
			}
		})
	}
}

// A provider given a non-positive heartbeat interval is refused before it
// serves, by an error naming the flag, rather than logging "serving at"
// and then panicking in its heartbeat loop.
func TestProviderRefusesZeroHeartbeat(t *testing.T) {
	out := refusal(t, buildDaemon(t), "-role", "provider", "-listen", "127.0.0.1:0", "-pm", "127.0.0.1:1", "-heartbeat", "0")
	if !strings.Contains(out, "-heartbeat") || strings.Contains(out, "panic:") {
		t.Fatalf("want a refusal naming -heartbeat and no panic:\n%s", out)
	}
}

// A provider given -dir but left on the default -store mem is refused
// before it serves, by an error naming -store disk: its sidecar under -dir
// would outlive the RAM chunks and replay digests for chunks a restart
// lost.
func TestProviderRefusesDirWithMemStore(t *testing.T) {
	out := refusal(t, buildDaemon(t), "-role", "provider", "-listen", "127.0.0.1:0", "-pm", "127.0.0.1:1", "-dir", t.TempDir())
	if !strings.Contains(out, "-store disk") || addrRe.MatchString(out) {
		t.Fatalf("want a refusal naming -store disk before serving:\n%s", out)
	}
}

// A provider asked for a chunk store other than the RAM and disk engines
// is refused before it serves, by an error naming the ones there are.
func TestProviderRefusesUnknownStore(t *testing.T) {
	out := refusal(t, buildDaemon(t), "-role", "provider", "-listen", "127.0.0.1:0", "-pm", "127.0.0.1:1", "-store", "cached")
	if !strings.Contains(out, "mem | disk") || addrRe.MatchString(out) {
		t.Fatalf("want a refusal naming mem | disk before serving:\n%s", out)
	}
}

// The command lines the benchmark deploys (benchmark/deploy.go), each with
// the -metrics-listen its traced runs append, start every role, and the
// deployment serves a write and its read-back.
func TestBenchmarkCommandLines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test is not -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	spawn := func(args ...string) string {
		obs := freeAddr(t)
		addr, _ := spawnDaemon(t, bin, append(args, "-metrics-listen", obs)...)
		res, err := http.Get("http://" + obs + "/healthz")
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		res.Body.Close()
		return addr
	}
	vm := spawn("-role", "vmanager", "-listen", "127.0.0.1:0", "-dir", filepath.Join(dir, "vm"), "-lease-ttl", "10s")
	pm := spawn("-role", "pmanager", "-listen", "127.0.0.1:0")
	mp := spawn("-role", "metadata", "-listen", "127.0.0.1:0", "-dir", filepath.Join(dir, "meta0"))
	spawn("-role", "provider", "-listen", "127.0.0.1:0", "-dir", filepath.Join(dir, "prov0"),
		"-pm", pm, "-store", "disk", "-heartbeat", "200ms")

	client, err := core.NewClient(core.Config{
		Network:       rpc.NewTCPNetwork(),
		VMAddr:        vm,
		PMAddr:        pm,
		MetaProviders: []string{mp},
		CallTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	blob, err := client.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("bench-args"), 4096)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := blob.Read(v, got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read-back mismatch (err=%v)", err)
	}
}

// The daemon-level acceptance scenario for durability: a version manager
// and a metadata provider running with -dir are kill -9'd mid-deployment
// and respawned on the same addresses and directories. Every published
// version must read back byte-identical, the retention floor must survive
// replay, and new writes must flow.
func TestDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test is not -short")
	}
	bin := buildDaemon(t)
	vmDir := filepath.Join(t.TempDir(), "vm")
	metaDir := filepath.Join(t.TempDir(), "meta0")

	pm, _ := spawnDaemon(t, bin, "-role", "pmanager", "-listen", "127.0.0.1:0",
		"-heartbeat-timeout", "5s")
	vmAddr, vmCmd := spawnDaemon(t, bin, "-role", "vmanager", "-listen", "127.0.0.1:0", "-dir", vmDir)
	mpAddr, mpCmd := spawnDaemon(t, bin, "-role", "metadata", "-listen", "127.0.0.1:0", "-dir", metaDir)
	for i := 0; i < 2; i++ {
		spawnDaemon(t, bin, "-role", "provider", "-listen", "127.0.0.1:0",
			"-pm", pm, "-store", "disk",
			"-dir", filepath.Join(t.TempDir(), fmt.Sprintf("chunks%d", i)),
			"-heartbeat", "200ms")
	}

	newClient := func() *core.Client {
		client, err := core.NewClient(core.Config{
			Network:       rpc.NewTCPNetwork(),
			VMAddr:        vmAddr,
			PMAddr:        pm,
			MetaProviders: []string{mpAddr},
			CallTimeout:   10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(client.Close)
		return client
	}
	client := newClient()

	blob, err := client.CreateBlob(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 3000)
	}
	var versions []uint64
	for i := 0; i < 3; i++ {
		v, err := blob.Write(payload(i), uint64(i*3000))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		versions = append(versions, v)
	}
	if err := blob.SetRetention(2); err != nil {
		t.Fatal(err)
	}

	// kill -9 the durable control plane and respawn it in place.
	vmCmd.Process.Kill()
	mpCmd.Process.Kill()
	vmCmd.Wait()
	mpCmd.Wait()
	if _, _, err := blob.Latest(); err == nil {
		t.Fatal("version manager still answering after SIGKILL")
	}
	_, _ = spawnDaemon(t, bin, "-role", "vmanager", "-listen", vmAddr, "-dir", vmDir)
	_, _ = spawnDaemon(t, bin, "-role", "metadata", "-listen", mpAddr, "-dir", metaDir)

	client = newClient()
	reblob, err := client.OpenBlob(blob.ID())
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	keep, floor, err := reblob.Retention()
	if err != nil {
		t.Fatal(err)
	}
	if keep != 2 || floor != 2 {
		t.Errorf("retention after recovery = keep %d floor %d, want 2/2", keep, floor)
	}
	// The reclaimed version answers with the typed error; retained ones
	// read back byte-identical, including content woven before the crash.
	if _, err := reblob.Read(versions[0], make([]byte, 1), 0); !errors.Is(err, core.ErrVersionReclaimed) {
		t.Errorf("below-floor read after recovery = %v, want ErrVersionReclaimed", err)
	}
	for i := 1; i < 3; i++ {
		want := bytes.Join([][]byte{payload(0), payload(1), payload(2)}[:i+1], nil)
		got := make([]byte, len(want))
		if _, err := reblob.Read(versions[i], got, 0); err != nil {
			t.Fatalf("read v%d after recovery: %v", versions[i], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d content diverged after recovery", versions[i])
		}
	}
	// And the deployment keeps accepting writes.
	v4, err := reblob.Write(payload(3), 9000)
	if err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	got := make([]byte, 12000)
	if _, err := reblob.Read(v4, got, 0); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{payload(0), payload(1), payload(2), payload(3)}, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("post-recovery write round trip mismatch")
	}
}

// freeAddr reserves a loopback address for a daemon that must be told its
// peers' addresses before they are up.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// The daemon-level acceptance scenario for the replicated control plane,
// through the flags no in-process test can reach: two vmanager processes
// form a group (-vm-peers / -standby-of / -ha-ttl / -repl) with write
// leases on and a server-side weaver (-lease-ttl, -meta) and export
// metrics (-metrics-listen). The leader is kill -9'd; a client holding both
// addresses must write and read back within 2x the leadership TTL (plus
// scheduling slack), and the survivor's /metrics must say it leads.
func TestDaemonFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test is not -short")
	}
	const haTTL, slack = time.Second, 3 * time.Second
	bin := buildDaemon(t)
	pm, _ := spawnDaemon(t, bin, "-role", "pmanager", "-listen", "127.0.0.1:0", "-heartbeat-timeout", "5s")
	mp, _ := spawnDaemon(t, bin, "-role", "metadata", "-listen", "127.0.0.1:0")
	addrA, addrB, metricsB := freeAddr(t), freeAddr(t), freeAddr(t)
	vmArgs := func(addr, name string, extra ...string) []string {
		return append([]string{"-role", "vmanager", "-listen", addr, "-dir", filepath.Join(t.TempDir(), name),
			"-ha-ttl", haTTL.String(), "-repl", "quorum", "-lease-ttl", "5s", "-meta", mp}, extra...)
	}
	_, leader := spawnDaemon(t, bin, vmArgs(addrA, "vm-a", "-vm-peers", addrB)...)
	spawnDaemon(t, bin, vmArgs(addrB, "vm-b", "-standby-of", addrA, "-metrics-listen", metricsB)...)
	for i := 0; i < 2; i++ {
		spawnDaemon(t, bin, "-role", "provider", "-listen", "127.0.0.1:0", "-pm", pm, "-heartbeat", "200ms")
	}

	client, err := core.NewClient(core.Config{
		Network:       rpc.NewTCPNetwork(),
		VMAddrs:       []string{addrA, addrB},
		PMAddr:        pm,
		MetaProviders: []string{mp},
		CallTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	blob, err := client.CreateBlob(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Repeat([]byte("before"), 500)
	if _, err := blob.Write(before, 0); err != nil {
		t.Fatal(err)
	}
	// Quorum commits need the standby inside the leader's commit gate. A
	// peer counts as synced once its catch-up snapshot is queued, so also
	// wait for its ack to reach the stream head: killing the leader before
	// the snapshot lands would leave the successor without the blob.
	probe := rpc.NewClient(rpc.NewTCPNetwork(), 2*time.Second)
	defer probe.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var st vmanager.HAStatusResp
		if err := probe.Call(addrA, vmanager.MethodHAStatus, &vmanager.Ack{}, &st); err == nil &&
			st.Role == "leader" && len(st.Standbys) == 1 && st.Standbys[0].Synced &&
			st.Standbys[0].AckSeq == st.StreamSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never synced with the leader")
		}
	}

	leader.Process.Kill()
	leader.Wait()
	killed := time.Now()
	after := bytes.Repeat([]byte("after!"), 500)
	var v uint64
	for {
		if v, err = blob.Write(after, uint64(len(before))); err == nil {
			break
		}
		if time.Since(killed) > 2*haTTL+slack {
			t.Fatalf("no write accepted %v after the leader died: %v", time.Since(killed), err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	got := make([]byte, len(before)+len(after))
	if _, err := blob.Read(v, got, 0); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if !bytes.Equal(got, append(before, after...)) {
		t.Fatal("content diverged across the failover")
	}
	t.Logf("writes resumed %v after kill -9 (leadership ttl %v)", time.Since(killed), haTTL)

	get := func(path string) string {
		res, err := http.Get("http://" + metricsB + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, _ := io.ReadAll(res.Body)
		if res.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, res.StatusCode)
		}
		return string(body)
	}
	if got := strings.TrimSpace(get("/healthz")); got != "ok" {
		t.Fatalf("/healthz = %q", got)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		fmt.Sprintf(`blobseer_vm_ha_is_leader{role="vmanager",instance=%q} 1`, addrB),
		fmt.Sprintf(`blobseer_vm_ha_takeovers_total{role="vmanager",instance=%q} 1`, addrB),
		`blobseer_lease_ttl_seconds{role="vmanager"} 5`,
		`blobseer_rpc_server_request_seconds_count{role="vmanager",method="vm.assign"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("survivor's /metrics lacks %s", want)
		}
	}
}
