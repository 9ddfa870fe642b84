package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/meta"
)

// layerMetric declares one per-layer metric; BENCHMARK.json's per_layer
// list is this table (a unit test keeps the two equal).
type layerMetric struct{ name, unit, better string }

// attributionMetrics come from the traced single-client pass of the
// workload itself: who did how much work per client op, seen from outside
// the processes.
var attributionMetrics = []layerMetric{
	{"vmanager.cpu_ms_per_op", "ms", "lower"},
	{"metadata.cpu_ms_per_op", "ms", "lower"},
	{"provider.cpu_ms_per_op", "ms", "lower"},
	{"pmanager.cpu_ms_per_op", "ms", "lower"},
	{"client.cpu_ms_per_op", "ms", "lower"},
	{"vmanager.peak_rss_mib", "MiB", "lower"},
	{"metadata.peak_rss_mib", "MiB", "lower"},
	{"provider.peak_rss_mib", "MiB", "lower"},
	{"client.peak_rss_mib", "MiB", "lower"},
	{"vmanager.rpcs_per_op", "count", "lower"},
	{"metadata.rpcs_per_op", "count", "lower"},
	{"provider.rpcs_per_op", "count", "lower"},
	{"pmanager.rpcs_per_op", "count", "lower"},
	{"rpc.wire_bytes_per_user_byte", "B/B", "lower"},
	{"vmanager.wal_appends_per_op", "count", "lower"},
	{"vmanager.wal_syncs_per_op", "count", "lower"},
	{"metadata.wal_appends_per_op", "count", "lower"},
	{"metadata.wal_syncs_per_op", "count", "lower"},
	{"provider.put_batches_per_op", "count", "lower"},
	{"core.chunk_put_rpcs_per_op", "count", "lower"},
	{"core.chunk_get_rpcs_per_op", "count", "lower"},
	{"meta.getnodes_rpcs_per_op", "count", "lower"},
	{"meta.put_rpcs_per_op", "count", "lower"},
	{"meta.nodes_fetched_per_op", "count", "lower"},
	{"meta.nodes_stored_per_op", "count", "lower"},
	{"meta.cache_hit_ratio", "ratio", "higher"},
	{"meta.spec_hit_ratio", "ratio", "higher"},
	{"provider.disk_bytes_per_user_byte", "B/B", "lower"},
	{"metadata.disk_bytes_per_user_byte", "B/B", "lower"},
	{"vmanager.disk_bytes_per_op", "B", "lower"},
	{"trace.pass_ops_per_s", "1/s", "higher"},
	{"trace.pass_p50_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// cacheOrderCounts are the per-op counts that follow from a hit or a miss
// in the client's metadata cache. meta.Client.GetNodes asks both metadata
// daemons at once and puts each reply's nodes into its LRU as the reply
// lands, so once the cache evicts (workloadDef.cacheEvicts) what it holds
// depends on which reply won, and these counts move by a few nodes in ten
// thousand from run to run. Every other count repeats exactly.
var cacheOrderCounts = map[string]bool{
	"metadata.rpcs_per_op":      true,
	"meta.getnodes_rpcs_per_op": true,
	"meta.nodes_fetched_per_op": true,
}

// cacheOrderTolerance is how far apart two runs' cacheOrderCounts may lie
// before -selfcheck fails; the largest difference seen is 0.006 %.
const cacheOrderTolerance = 0.01

func perLayerMetrics() []layerMetric {
	return append(append([]layerMetric(nil), attributionMetrics...), probeMetrics...)
}

// passResult is one fixed-op-count, single-client pass over a workload.
type passResult struct {
	ops, failed int
	userBytes   int64
	elapsed     time.Duration
	lat         []float64 // ms
	firstErr    error
}

// fixedPass runs the workload's op list from one goroutine: tracedOps ops
// of client A and, where B's op differs, one of B's after every
// tracedEvery. With one client and a fixed list, every count the system
// keeps comes out the same on every run of the same seed, but for
// cacheOrderCounts.
func (r *runner) fixedPass(e *env, st *wlState, round int) (passResult, error) {
	var pr passResult
	ops, err := r.wl.round(e, st, round)
	if err != nil {
		return pr, err
	}
	do := func(c, i int) {
		t := time.Now()
		err := ops[c](i)
		pr.ops++
		pr.userBytes += int64(r.wl.opBytes[c])
		if err != nil {
			pr.failed++
			if pr.firstErr == nil {
				pr.firstErr = fmt.Errorf("client %s op %d: %w", clientNames[c], i, err)
			}
			return
		}
		pr.lat = append(pr.lat, float64(time.Since(t).Nanoseconds())/1e6)
	}
	start := time.Now()
	for i, nb := 0, 0; i < r.wl.tracedOps; i++ {
		do(0, i)
		if r.wl.tracedEvery > 0 && (i+1)%r.wl.tracedEvery == 0 {
			do(1, nb)
			nb++
		}
	}
	pr.elapsed = time.Since(start)
	return pr, nil
}

// outside is everything the benchmark can see of the system without
// touching it: /proc, /metrics, the client's public counters and du.
type outside struct {
	cpu  cpuByRole
	prom promSnapshot
	io   core.IOStats
	meta meta.RPCStats
	disk map[string]uint64
	user int64 // payload bytes written so far
}

func (e *env) observe() (outside, error) {
	o := outside{cpu: e.cpuByRole(), disk: map[string]uint64{}, user: e.userBytes.Load()}
	var err error
	if o.prom, err = e.dep.scrape(); err != nil {
		return o, err
	}
	for _, c := range e.clients {
		io, m := c.IOStats(), c.MetaRPCStats()
		o.io.ChunkGetRPCs += io.ChunkGetRPCs
		o.io.ChunkPutRPCs += io.ChunkPutRPCs
		o.meta.GetRPCs += m.GetRPCs
		o.meta.GetNodesRPCs += m.GetNodesRPCs
		o.meta.PutRPCs += m.PutRPCs
		o.meta.NodesFetched += m.NodesFetched
		o.meta.NodesStored += m.NodesStored
		o.meta.SpecHits += m.SpecHits
		o.meta.SpecMisses += m.SpecMisses
		o.meta.CacheHits += m.CacheHits
		o.meta.CacheMisses += m.CacheMisses
	}
	for _, role := range []string{roleVM, roleMeta, roleProv} {
		if o.disk[role], err = diskUsage(e.dep.dataDirs(role)...); err != nil {
			return o, err
		}
	}
	return o, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// attribute turns two observations around a pass into the per-op metrics.
func attribute(before, after outside, pr passResult, e *env) map[string]float64 {
	ops := float64(pr.ops)
	user := float64(pr.userBytes)
	m := map[string]float64{}
	cpu := after.cpu.sub(before.cpu)
	for _, role := range allRoles {
		m[role+".cpu_ms_per_op"] = float64((cpu[role][0] + cpu[role][1]).Microseconds()) / 1e3 / ops
	}
	for _, role := range []string{roleVM, roleMeta, roleProv} {
		var rss uint64
		for _, d := range e.dep.byRole(role) {
			if v, err := procPeakRSS(d.pid()); err == nil {
				rss += v
			}
		}
		m[role+".peak_rss_mib"] = float64(rss) / mib
	}
	self, _ := procPeakRSS(os.Getpid())
	m["client.peak_rss_mib"] = float64(self) / mib

	delta := func(name string, match map[string]string) float64 {
		return after.prom.sum(name, match) - before.prom.sum(name, match)
	}
	for _, role := range []string{roleVM, roleMeta, roleProv, rolePM} {
		m[role+".rpcs_per_op"] = delta("blobseer_rpc_server_request_seconds_count", map[string]string{"role": role}) / ops
	}
	wire := delta("blobseer_rpc_server_bytes_in_total", nil) + delta("blobseer_rpc_server_bytes_out_total", nil)
	m["rpc.wire_bytes_per_user_byte"] = ratio(wire, user)
	for _, role := range []string{roleVM, roleMeta} {
		by := map[string]string{"daemon_role": role}
		m[role+".wal_appends_per_op"] = delta("blobseer_wal_appends_total", by) / ops
		m[role+".wal_syncs_per_op"] = delta("blobseer_wal_syncs_total", by) / ops
	}
	m["provider.put_batches_per_op"] = delta("blobseer_provider_put_batches_total", nil) / ops

	m["core.chunk_put_rpcs_per_op"] = float64(after.io.ChunkPutRPCs-before.io.ChunkPutRPCs) / ops
	m["core.chunk_get_rpcs_per_op"] = float64(after.io.ChunkGetRPCs-before.io.ChunkGetRPCs) / ops
	m["meta.getnodes_rpcs_per_op"] = float64(after.meta.GetNodesRPCs-before.meta.GetNodesRPCs) / ops
	m["meta.put_rpcs_per_op"] = float64(after.meta.PutRPCs-before.meta.PutRPCs) / ops
	m["meta.nodes_fetched_per_op"] = float64(after.meta.NodesFetched-before.meta.NodesFetched) / ops
	m["meta.nodes_stored_per_op"] = float64(after.meta.NodesStored-before.meta.NodesStored) / ops
	hits, misses := float64(after.meta.CacheHits-before.meta.CacheHits), float64(after.meta.CacheMisses-before.meta.CacheMisses)
	m["meta.cache_hit_ratio"] = ratio(hits, hits+misses)
	shits, smisses := float64(after.meta.SpecHits-before.meta.SpecHits), float64(after.meta.SpecMisses-before.meta.SpecMisses)
	m["meta.spec_hit_ratio"] = ratio(shits, shits+smisses)

	// Read-only passes write nothing: the ratios are 0 there by definition.
	written := float64(after.user - before.user)
	grew := func(role string) float64 { return float64(after.disk[role]) - float64(before.disk[role]) }
	m["provider.disk_bytes_per_user_byte"] = ratio(grew(roleProv), written)
	m["metadata.disk_bytes_per_user_byte"] = ratio(grew(roleMeta), written)
	m["vmanager.disk_bytes_per_op"] = grew(roleVM) / ops
	return m
}

// runTraced is the traced run: every daemon serves /metrics, one client
// runs a fixed op list, and the layer probes and the hop-cost table follow.
// It reports per-layer metrics only; end-to-end numbers never come from it.
// Its length is set by the fixed op counts, not by --seconds: a time-boxed
// pass would not repeat its counts.
func (r *runner) runTraced() (*result, error) {
	res := &result{}
	spans := newSpanRecorder(r.wl.name)
	obs := &rpcSpanObserver{rec: spans}
	e, st, _, err := r.setUp(true, obs)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()
	count := func(pr passResult) {
		res.attempted += int64(pr.ops)
		res.failed += int64(pr.failed)
		if pr.firstErr != nil && len(res.notes) < 8 {
			res.notes = append(res.notes, pr.firstErr.Error())
		}
	}

	// Pass 0 on the fresh deployment gives the counts: nothing is warm, so
	// they are a function of the seed alone (cacheOrderCounts nearly so).
	// Pass 1 gives the rate.
	before, err := e.observe()
	if err != nil {
		return nil, err
	}
	pr, err := r.fixedPass(e, st, 0)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	after, err := e.observe()
	if err != nil {
		return nil, err
	}
	count(pr)
	values := attribute(before, after, pr, e)
	tracedRate, err := r.passRate(e, st, 1, count)
	if err != nil {
		return nil, err
	}
	values["trace.pass_ops_per_s"] = tracedRate
	values["trace.pass_p50_ms"] = percentile(sorted(pr.lat), 50)
	r.log("traced pass: %d ops in %.3fs", pr.ops, pr.elapsed.Seconds())

	p, err := newProber(e, spans, obs)
	if err != nil {
		return nil, err
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	for k, v := range p.out {
		values[k] = v
	}
	rbuf, wbuf := make([]byte, bulkReadSize), make([]byte, bulkWriteSize)
	if err := p.hopCost("cold 256-chunk read (16 MiB, 64 KiB chunks, no metadata cache)", "hop.read_256", func() error {
		_, err := p.blob.Read(p.version, rbuf, 0)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.hopCost("64-chunk repl-2 durable write (4 MiB, both WALs fsync'd)", "hop.write_64", func() error {
		_, err := p.blob.Write(wbuf, 8*bulkWriteSize)
		return err
	}); err != nil {
		return nil, err
	}
	p.cli.Close()

	// The same pass with -metrics-listen off is the untraced reference.
	e.closeClients()
	e.dep.killAll()
	if err := e.dep.restart(false); err != nil {
		return nil, err
	}
	if err := e.openClients(r.wl.cacheNodes); err != nil {
		return nil, err
	}
	if _, err := r.passRate(e, st, 2, count); err != nil { // warms the restarted daemons like pass 0 did
		return nil, err
	}
	plainRate, err := r.passRate(e, st, 3, count)
	if err != nil {
		return nil, err
	}
	values["trace.overhead_frac"] = 1 - ratio(tracedRate, plainRate)
	r.log("pass rate: %.1f ops/s with -metrics-listen, %.1f without", tracedRate, plainRate)

	for _, m := range perLayerMetrics() {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.metrics = append(res.metrics, metric{m.name, v, m.unit})
	}
	dump := filepath.Join(e.dep.dir, "spans.ndjson")
	if err := spans.dump(dump); err != nil {
		return nil, err
	}
	r.log("%d spans written to %s (kept with -keep)", len(spans.snapshot()), dump)
	return res, nil
}

// passRate runs one fixed pass and returns its ops per second.
func (r *runner) passRate(e *env, st *wlState, round int, count func(passResult)) (float64, error) {
	pr, err := r.fixedPass(e, st, round)
	if err != nil {
		return 0, fmt.Errorf("pass %d: %w", round, err)
	}
	count(pr)
	return float64(pr.ops-pr.failed) / pr.elapsed.Seconds(), nil
}
