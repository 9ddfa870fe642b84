package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// Shape of an end-to-end run: set-up is repeated so its median can be
// reported, one round is discarded as warm-up, and the measured time is
// split into equal timed rounds whose median is the metric's value.
const (
	// setupRepeats is how often set-up runs; the driver's contract asks for
	// the median of several, and the last deployment is the one measured.
	setupRepeats = 3
	timedRounds  = 5
	// warmupTime is the length of the discarded first round: connections
	// dialled, caches and page cache touched, lazy set-up inside the daemons
	// done. A fresh bulk_write deployment needs about 2 s to reach its rate.
	warmupTime = 2500 * time.Millisecond
)

// runner carries what every kind of run needs.
type runner struct {
	bin     string // blobseerd binary
	runRoot string // where run directories are made
	seed    uint64
	wl      *workloadDef
	log     func(format string, args ...any) // human-readable progress, stderr
}

// result is one run's outcome in the driver's terms.
type result struct {
	attempted, failed int64
	lostAcked         int64
	metrics           []metric
	notes             []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

// setUp spawns a deployment, opens the clients and prefills: everything
// that has to happen before the first measured op. It returns the time
// that took.
func (r *runner) setUp(withMetrics bool, spans *rpcSpanObserver) (*env, *wlState, time.Duration, error) {
	t0 := time.Now()
	dep, err := newDeployment(r.bin, r.runRoot, withMetrics)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := dep.start(); err != nil {
		dep.destroy()
		return nil, nil, 0, err
	}
	e := &env{dep: dep, pat: newPattern(r.seed), seed: r.seed, rpcSpans: spans}
	st := &wlState{}
	if err := e.openClients(r.wl.cacheNodes); err != nil {
		e.tearDown()
		return nil, nil, 0, err
	}
	if err := r.wl.prefill(e, st); err != nil {
		e.tearDown()
		return nil, nil, 0, fmt.Errorf("prefill: %w", err)
	}
	return e, st, time.Since(t0), nil
}

func (e *env) tearDown() {
	e.closeClients()
	e.dep.destroy()
}

// quiesce puts the machine in the same state before every round.
//
// Chunk files are not fsynced (the daemon default), so a write-heavy round
// leaves hundreds of MiB of dirty page cache behind. Left alone, the dirty
// total crosses the kernel's background-writeback threshold somewhere in the
// fourth or fifth round of bulk_write, and that round loses a quarter of its
// ops to waiting. Flushing between rounds, outside the timed window, makes
// every round start from "nothing dirty"; what is measured is the system's
// own cost, not where in the run the kernel chose to write back.
func quiesce() { syscall.Sync() }

// roundStats is what one round of closed-loop traffic produced.
type roundStats struct {
	ops      [2]int
	failed   [2]int
	elapsed  [2]time.Duration // from the common start to the client's last completion
	lat      [2][]float64     // ms, successful ops only
	cpu      time.Duration    // user+sys of every daemon and the generator
	byRole   cpuByRole
	firstErr error
}

// runRound drives both clients closed-loop until the deadline: each issues
// its next op only when the previous one has returned. An op in flight at
// the deadline completes and counts, and each client's rate is taken over
// its own elapsed time, so a round's length does not quantise the rate.
func (e *env) runRound(ops [2]opFunc, d time.Duration) roundStats {
	var rs roundStats
	cpu0 := e.cpuByRole()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]float64, 0, 4096)
			for i := 0; ; i++ {
				t := time.Now()
				if !t.Before(deadline) {
					break
				}
				err := ops[c](i)
				end := time.Now()
				rs.ops[c]++
				rs.elapsed[c] = end.Sub(start)
				if err != nil {
					rs.failed[c]++
					errMu.Lock()
					if rs.firstErr == nil {
						rs.firstErr = fmt.Errorf("client %d op %d: %w", c, i, err)
					}
					errMu.Unlock()
					continue
				}
				lat = append(lat, float64(end.Sub(t).Nanoseconds())/1e6)
			}
			rs.lat[c] = lat
		}(c)
	}
	wg.Wait()
	rs.byRole = e.cpuByRole().sub(cpu0)
	rs.cpu = rs.byRole.total()
	return rs
}

// cpuByRole is accumulated CPU time per role; the generator is "client".
type cpuByRole map[string][2]time.Duration // user, sys

const roleClient = "client"

var allRoles = []string{roleVM, rolePM, roleMeta, roleProv, roleClient}

func (e *env) cpuByRole() cpuByRole {
	out := cpuByRole{}
	u, s := selfCPU()
	out[roleClient] = [2]time.Duration{u, s}
	for _, d := range e.dep.daemons {
		if u, s, err := procCPU(d.pid()); err == nil {
			cur := out[d.role]
			out[d.role] = [2]time.Duration{cur[0] + u, cur[1] + s}
		}
	}
	return out
}

func (c cpuByRole) sub(o cpuByRole) cpuByRole {
	out := cpuByRole{}
	for k, v := range c {
		out[k] = [2]time.Duration{v[0] - o[k][0], v[1] - o[k][1]}
	}
	return out
}

func (c cpuByRole) total() time.Duration {
	var t time.Duration
	for _, v := range c {
		t += v[0] + v[1]
	}
	return t
}

func (c cpuByRole) String() string {
	s := ""
	for _, r := range allRoles {
		s += fmt.Sprintf(" %s %.2f+%.2f", r, c[r][0].Seconds(), c[r][1].Seconds())
	}
	return "user+sys s:" + s
}

// totalPeakRSS sums VmHWM over all nine processes.
func (e *env) totalPeakRSS() uint64 {
	total, _ := procPeakRSS(os.Getpid())
	for _, d := range e.dep.daemons {
		if rss, err := procPeakRSS(d.pid()); err == nil {
			total += rss
		}
	}
	return total
}

// tailLadder is what a tail latency may be reported at: the highest rung
// that the pooled sample supports with ten samples beyond it.
var tailLadder = []float64{50, 90, 99, 99.9}

// clientNames label the two closed-loop clients in metric names.
var clientNames = [2]string{"a", "b"}

// runEndToEnd is the untraced run: -metrics-listen off, shipped tracing.
func (r *runner) runEndToEnd(measure time.Duration) (*result, error) {
	res := &result{}
	// Peak RSS is per run even when one process makes several (-selfcheck):
	// writing 5 to clear_refs resets this process's VmHWM. Best effort.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	// Set-up, several times over; the last deployment is the one measured.
	var setups []float64
	var e *env
	var st *wlState
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.closeClients()
			e.dep.remove(false) // only timed: nothing in it to -keep
		}
		var took time.Duration
		var err error
		e, st, took, err = r.setUp(false, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
	}
	defer e.tearDown()
	r.log("set-up %.3f s (median reported); data on %s", setups, fsType(e.dep.dir))

	count := func(rs roundStats) {
		for c := range rs.ops {
			res.attempted += int64(rs.ops[c])
			res.failed += int64(rs.failed[c])
		}
		if rs.firstErr != nil && len(res.notes) < 8 {
			res.notes = append(res.notes, rs.firstErr.Error())
		}
	}

	// Warm-up: discarded, but its failures count.
	ops, err := r.wl.round(e, st, -1)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	quiesce()
	count(e.runRound(ops, warmupTime))

	roundLen := measure / timedRounds
	cpuStart := e.cpuByRole()
	hostTotal0, hostSteal0, hostErr := hostCPU()
	var rate, p50, pooled [2][]float64 // per client: per-round rates and medians, all latencies
	var cpuPerOp []float64
	for i := 0; i < timedRounds; i++ {
		ops, err := r.wl.round(e, st, i)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		quiesce()
		rs := e.runRound(ops, roundLen)
		count(rs)
		total := 0
		for c := range rs.ops {
			done := rs.ops[c] - rs.failed[c]
			total += done
			if rs.elapsed[c] > 0 {
				rate[c] = append(rate[c], float64(done)/rs.elapsed[c].Seconds())
			}
			if len(rs.lat[c]) > 0 {
				p50[c] = append(p50[c], percentile(sorted(rs.lat[c]), 50))
			}
			pooled[c] = append(pooled[c], rs.lat[c]...)
		}
		if total > 0 {
			cpuPerOp = append(cpuPerOp, float64(rs.cpu.Microseconds())/1e3/float64(total))
		}
		r.log("round %d: a %d ops in %.3fs, b %d ops in %.3fs, cpu %.2fs (%s)", i,
			rs.ops[0], rs.elapsed[0].Seconds(), rs.ops[1], rs.elapsed[1].Seconds(), rs.cpu.Seconds(), rs.byRole)
		if err := e.dep.checkAlive(); err != nil {
			return nil, err
		}
	}

	r.log("timed rounds %s", e.cpuByRole().sub(cpuStart))
	// A run that lost CPU time to the hypervisor measured the host. The
	// share is printed so that such a run can be told from a slow program.
	if total, steal, err := hostCPU(); err == nil && hostErr == nil && total > hostTotal0 {
		res.notes = append(res.notes, fmt.Sprintf("host: %.1f%% of CPU time stolen by the hypervisor during the timed rounds",
			100*float64(steal-hostSteal0)/float64(total-hostTotal0)))
	}
	peakRSS := e.totalPeakRSS()
	stored, err := diskUsage(e.dep.dataDirs(roleProv, roleMeta, roleVM)...)
	if err != nil {
		return nil, err
	}
	user := e.userBytes.Load()

	res.metrics = append(res.metrics, metric{"setup_s", median(setups), "s"})
	for c, n := range clientNames {
		if len(pooled[c]) == 0 {
			return nil, fmt.Errorf("client %s completed no op: %v", n, res.notes)
		}
		asc := sorted(pooled[c])
		tail := highestSupported(len(asc), tailLadder)
		res.metrics = append(res.metrics,
			metric{n + "_ops_per_s", median(rate[c]), "1/s"},
			metric{n + "_p50_ms", median(p50[c]), "ms"},
		)
		res.notes = append(res.notes, fmt.Sprintf("client %s: %.1f MiB/s; %d latency samples pooled over %d rounds, p%.0f = %.3f ms (%d samples beyond it)",
			n, median(rate[c])*float64(r.wl.opBytes[c])/mib, len(asc), timedRounds, tail, percentile(asc, tail), samplesBeyond(len(asc), tail)))
	}
	res.metrics = append(res.metrics,
		metric{"cpu_ms_per_op", median(cpuPerOp), "ms"},
		metric{"peak_rss_mib", float64(peakRSS) / mib, "MiB"},
		metric{"stored_bytes_per_user_byte", float64(stored) / float64(user), "B/B"},
	)

	// Durability: crash every daemon, bring them back on the same
	// directories, and read every acknowledged write back.
	if len(st.acked) > 0 {
		lost, checked, err := r.checkDurability(e, st)
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		res.attempted += checked
		res.failed += lost
		res.lostAcked = lost
		r.log("durability: kill -9 + restart, %d acknowledged writes read back, %d lost", checked, lost)
	}
	return res, nil
}

// checkDurability kills the deployment, restarts it in place and reads back
// every acknowledged write from the newest version of its blob.
func (r *runner) checkDurability(e *env, st *wlState) (lost, checked int64, err error) {
	e.closeClients()
	e.dep.killAll()
	if err := e.dep.restart(false); err != nil {
		return 0, 0, err
	}
	cli, err := e.newClient("bench-verify", 0)
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()
	// Later writes to an extent supersede earlier ones: keep the last.
	last := map[[2]uint64]ackedWrite{}
	for _, w := range st.acked {
		last[[2]uint64{w.blob, w.off}] = w
	}
	writes := make([]ackedWrite, 0, len(last))
	for _, w := range last {
		writes = append(writes, w)
	}
	sort.Slice(writes, func(i, j int) bool {
		if writes[i].blob != writes[j].blob {
			return writes[i].blob < writes[j].blob
		}
		return writes[i].off < writes[j].off
	})
	var buf []byte
	blobs := map[uint64]*core.Blob{}
	for _, w := range writes {
		b := blobs[w.blob]
		if b == nil {
			if b, err = cli.OpenBlob(w.blob); err != nil {
				return 0, 0, err
			}
			blobs[w.blob] = b
		}
		if cap(buf) < w.size {
			buf = make([]byte, w.size)
		}
		p := buf[:w.size]
		checked++
		if _, err := b.Read(0, p, w.off); err != nil || !e.pat.verify(p, w.off, w.shift) {
			lost++
		}
	}
	return lost, checked, nil
}
