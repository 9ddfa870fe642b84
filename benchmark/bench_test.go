package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10.5], n=4) == [2.75, 5.5, 8.25]
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(asc, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// statistics.quantiles([1,2,3], n=4) == [1, 2, 3]: positions clamp.
	if lo, hi := quantile([]float64{1, 2, 3}, 0.25), quantile([]float64{1, 2, 3}, 0.75); lo != 1 || hi != 3 {
		t.Errorf("quartiles of [1 2 3] = %v, %v, want 1, 3", lo, hi)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100} {
		if got := percentile(asc, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // exactly ten above rank 90
		{99, 90, false},  // rank 90 of 99 leaves nine
		{1000, 99, true}, // ten above rank 990
		{999, 99, false}, // rank 990 of 999 leaves nine
		{55, 90, false},  // a short bulk round
		{10000, 99.9, true},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v (%d beyond), want %v", c.n, c.p, got, samplesBeyond(c.n, c.p), c.want)
		}
	}
	ladder := []float64{50, 90, 99, 99.9}
	for n, want := range map[int]float64{15: 0, 20: 50, 120: 90, 1200: 99, 20000: 99.9} {
		if got := highestSupported(n, ladder); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, StartNs: 100, EndNs: 1100}
	children := []span{
		{Parent: 1, StartNs: 200, EndNs: 400},
		{Parent: 1, StartNs: 300, EndNs: 500},   // overlaps the first: union 200..500
		{Parent: 1, StartNs: 350, EndNs: 450},   // nested inside the union
		{Parent: 1, StartNs: 700, EndNs: 800},   // disjoint
		{Parent: 1, StartNs: 1000, EndNs: 1300}, // sticks out: clipped at 1100
		{Parent: 1, StartNs: 0, EndNs: 50},      // entirely outside: ignored
	}
	// covered = 300 + 100 + 100, of a 1000 ns parent.
	if got := selfTimeNs(parent, children); got != 500 {
		t.Errorf("self time = %d, want 500", got)
	}
	if got := selfTimeNs(parent, nil); got != 1000 {
		t.Errorf("childless self time = %d, want 1000", got)
	}
	// Adjacent children must not be double counted nor leave a gap.
	adjacent := []span{{Parent: 1, StartNs: 100, EndNs: 600}, {Parent: 1, StartNs: 600, EndNs: 1100}}
	if got := selfTimeNs(parent, adjacent); got != 0 {
		t.Errorf("fully covered self time = %d, want 0", got)
	}

	all := append([]span{parent, {ID: 9, Name: "leaf", StartNs: 0, EndNs: 10}}, children...)
	all[0].Name = "root"
	byName := selfTimesByName(all)
	if !reflect.DeepEqual(byName, map[string][]int64{"root": {500}}) {
		t.Errorf("selfTimesByName = %v", byName)
	}
}

func TestSpanRecorderParentsAndDump(t *testing.T) {
	rec := newSpanRecorder("wl")
	obs := &rpcSpanObserver{rec: rec}
	obs.ObserveCall("a", "m", time.Millisecond, nil) // no root open: dropped
	now := time.Now()
	root := rec.reserve("root", 0, now)
	obs.setRoot(root)
	obs.ObserveCall("a", "vm.latest", time.Millisecond, nil)
	obs.setRoot(0)
	rec.finish(root, now.Add(5*time.Millisecond))
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Name != "rpc:vm.latest" || spans[0].EndNs-spans[0].StartNs != 5e6 {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	if err := rec.dump(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	var got span
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil || got != spans[1] {
		t.Errorf("dumped %+v (err %v), want %+v", got, err, spans[1])
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	text := "4242 (blob) seerd (x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 9 0 100 1000 200 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	user, sys, err := parseProcStat(text)
	if err != nil {
		t.Fatal(err)
	}
	if user != 1570*time.Millisecond || sys != 430*time.Millisecond {
		t.Errorf("user %v sys %v, want 1.57s 0.43s", user, sys)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u 12 13"} {
		if _, _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
	// The live file of this process parses too.
	if _, _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
}

func TestParseHostCPU(t *testing.T) {
	text := "cpu  757456 0 764554 1082790 133604 0 164843 51847 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	total, steal, err := parseHostCPU(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(757456+764554+1082790+133604+164843+51847) * clockTick; total != want || steal != 51847*clockTick {
		t.Errorf("total %v steal %v, want %v and %v", total, steal, want, 51847*clockTick)
	}
	for _, bad := range []string{"", "cpu 1 2 3", "intr 1 2 3 4 5 6 7 8 9", "cpu 1 2 3 4 5 6 7 x 9"} {
		if _, _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) did not fail", bad)
		}
	}
	if _, _, err := hostCPU(); err != nil {
		t.Error(err)
	}
}

func TestParseStatusKB(t *testing.T) {
	text := "Name:\tblobseerd\nVmPeak:\t 1240000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseStatusKB(text, "VmHWM")
	if err != nil || kb != 51234 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if _, err := parseStatusKB(text, "VmSwap"); err == nil {
		t.Error("missing key did not fail")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("wrong unit did not fail")
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss == 0 {
		t.Errorf("own VmHWM = %d, %v", rss, err)
	}
}

func TestFsTypeLongestMount(t *testing.T) {
	info := []byte("22 1 254:0 / / rw,relatime shared:1 - ext4 /dev/vda rw\n" +
		"30 22 0:25 / /dev/shm rw,nosuid - tmpfs tmpfs rw\n" +
		"31 22 0:26 / /devel rw - xfs /dev/vdb rw\n")
	for path, want := range map[string]string{"/root/repo": "ext4", "/dev/shm/x": "tmpfs", "/devel": "xfs", "/dev/shmx": "ext4"} {
		if got := fsTypeFrom(info, path); got != want {
			t.Errorf("fsTypeFrom(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP blobseer_rpc_server_request_seconds Server-side request latency.
# TYPE blobseer_rpc_server_request_seconds histogram
blobseer_rpc_server_request_seconds_bucket{role="provider",method="provider.get",le="0.001"} 17 # {trace_id="00ab"} 0.0004
blobseer_rpc_server_request_seconds_bucket{role="provider",method="provider.get",le="+Inf"} 20
blobseer_rpc_server_request_seconds_sum{role="provider",method="provider.get"} 0.0123
blobseer_rpc_server_request_seconds_count{role="provider",method="provider.get"} 20
blobseer_rpc_server_request_seconds_count{role="provider",method="pm.heartbeat"} 3
blobseer_wal_syncs_total{instance="a \"quoted\" \\ name"} 1.5e+02
blobseer_meta_nodes 42
`
	samples, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(samples))
	}
	snap := promSnapshot(samples)
	if got := snap.sum("blobseer_rpc_server_request_seconds_count", map[string]string{"role": "provider"}); got != 23 {
		t.Errorf("count sum = %v, want 23", got)
	}
	if got := snap.sum("blobseer_rpc_server_request_seconds_count", map[string]string{"method": "provider.get"}); got != 20 {
		t.Errorf("count by method = %v, want 20", got)
	}
	if got := snap.sum("blobseer_rpc_server_request_seconds_bucket", map[string]string{"le": "0.001"}); got != 17 {
		t.Errorf("bucket with exemplar = %v, want 17", got)
	}
	if got := snap.sum("blobseer_wal_syncs_total", map[string]string{"instance": `a "quoted" \ name`}); got != 150 {
		t.Errorf("escaped label sum = %v, want 150", got)
	}
	if got := snap.sum("blobseer_meta_nodes", nil); got != 42 {
		t.Errorf("label-free sample = %v, want 42", got)
	}
	for _, bad := range []string{"novalue", `x{a="b} 1`, `x{a=b} 1`, "x notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) did not fail", bad)
		}
	}
}

func TestOpListsAreDeterministic(t *testing.T) {
	draw := func(seed uint64, wl string, round, client int) ([]uint64, []int) {
		offs := alignedOffsets(opRand(seed, wl, round, client), 512, pointBlob, pointReadSize, pointReadSize)
		return offs, writeSlots(opRand(seed, wl, round, client), 64)
	}
	o1, s1 := draw(7, "point_read", 2, 1)
	o2, s2 := draw(7, "point_read", 2, 1)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same (seed, workload, round, client) gave different op lists")
	}
	for name, other := range map[string][]uint64{
		"seed":     first(draw(8, "point_read", 2, 1)),
		"workload": first(draw(7, "bulk_read", 2, 1)),
		"round":    first(draw(7, "point_read", 3, 1)),
		"client":   first(draw(7, "point_read", 2, 0)),
	} {
		if reflect.DeepEqual(o1, other) {
			t.Errorf("changing the %s did not change the op list", name)
		}
	}
	for _, off := range o1 {
		if off%pointReadSize != 0 || off+pointReadSize > pointBlob {
			t.Fatalf("offset %d out of range or unaligned", off)
		}
	}
	// Every slot exactly once, and never further than its window of eight.
	seen := map[int]bool{}
	for i, s := range s1 {
		if seen[s] || s/8 != i/8 {
			t.Fatalf("slot %d at position %d: duplicate or outside its window", s, i)
		}
		seen[s] = true
	}
}

func first(a []uint64, _ []int) []uint64 { return a }

func TestPatternFillVerify(t *testing.T) {
	p := newPattern(3)
	buf := make([]byte, 3*patternLen/2) // wraps the reference once
	const off, shift = 5*patternLen - 1000, 7919
	p.fill(buf, off, shift)
	if !p.verify(buf, off, shift) {
		t.Fatal("verify rejects what fill wrote")
	}
	if p.verify(buf, off+1, shift) || p.verify(buf, off, shift+1) {
		t.Error("verify accepts content of another offset or generation")
	}
	buf[len(buf)-1] ^= 1
	if p.verify(buf, off, shift) {
		t.Error("verify accepts a flipped last byte")
	}
	if reflect.DeepEqual(newPattern(4).ref[:64], p.ref[:64]) {
		t.Error("different seeds gave the same content")
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the program from
// drifting apart: same workloads, same metrics, same units, same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	layers := perLayerMetrics()
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(layers))
	}
	for i, m := range layers {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, got, m)
		}
	}
}
