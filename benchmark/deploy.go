package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/pmanager"
	"repro/internal/rpc"
)

// The deployment every workload runs against: the shipping daemon, one OS
// process per role, on explicit loopback ports.
const (
	numMeta      = 2
	numProviders = 4
)

// role names, also the labels of the per-role metrics.
const (
	roleVM   = "vmanager"
	rolePM   = "pmanager"
	roleMeta = "metadata"
	roleProv = "provider"
)

// daemon is one blobseerd process of the deployment.
type daemon struct {
	role    string
	name    string // vm, pm, meta0, prov2 ...
	addr    string // RPC listen address
	obsAddr string // reserved for -metrics-listen; passed only in traced runs
	dir     string // data dir, "" for the pmanager
	args    []string
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been reaped
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// exited reports whether the process has ended. kill(pid, 0) cannot tell: it
// succeeds on a zombie.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// deployment is a running set of daemons plus the directory they live in.
type deployment struct {
	bin     string
	dir     string
	metrics bool
	daemons []*daemon
}

// spawner starts children from one OS thread that lives as long as the
// benchmark. Pdeathsig is delivered when the *thread* that forked exits,
// so forking from an ordinary goroutine could kill daemons mid-run.
var spawner = struct {
	once sync.Once
	req  chan *exec.Cmd
	resp chan error
}{req: make(chan *exec.Cmd), resp: make(chan error)}

func startCmd(cmd *exec.Cmd) error {
	spawner.once.Do(func() {
		go func() {
			runtime.LockOSThread()
			for c := range spawner.req {
				spawner.resp <- c.Start()
			}
		}()
	})
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	spawner.req <- cmd
	return <-spawner.resp
}

// live tracks every child and run directory so that exit, panic and SIGINT
// all leave nothing behind.
var live = struct {
	sync.Mutex
	deps map[*deployment]bool
	keep bool
}{deps: map[*deployment]bool{}}

// cleanupAll kills every child and removes every run directory (unless
// -keep). Safe to call more than once.
func cleanupAll() {
	live.Lock()
	deps := make([]*deployment, 0, len(live.deps))
	for d := range live.deps {
		deps = append(deps, d)
	}
	live.Unlock()
	for _, d := range deps {
		d.destroy()
	}
}

// installSignalCleanup makes SIGINT/SIGTERM tear the deployment down before
// the process exits.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanupAll()
		os.Exit(130)
	}()
}

// Ports are fixed rather than kernel-chosen: metadata nodes are placed by
// hashing provider addresses, so the same ports give the same placement and
// the same RPC counts on every run. The block sits below the ephemeral
// range so no outgoing connection can be holding one of its ports.
const (
	portBase   = 24400
	portStride = 100 // next block tried when one is busy
	portBlocks = 40
)

// freePortBlock probes blocks of n consecutive loopback ports, starting at
// portBase, and returns the first in which every port can be bound. All
// listeners of a block are held until the last one is known to be free.
func freePortBlock(n int) (int, error) {
	var lastErr error
	for b := 0; b < portBlocks; b++ {
		base := portBase + b*portStride
		var held []net.Listener
		for i := 0; i < n; i++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				lastErr = err
				break
			}
			held = append(held, l)
		}
		for _, l := range held {
			l.Close()
		}
		if len(held) == n {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no free block of %d ports from %d up: %w", n, portBase, lastErr)
}

// spreadSubdirs sets ext4's "top of directory hierarchy" attribute
// (chattr +T) on dir, so that each run directory made in it is placed in a
// block group of its own choosing instead of next to its siblings.
//
// Without it, every run's chunk files come from the same few block groups,
// and ext4 will not hand out an inode freed in the last 60 s: each file
// creation first steps over every inode the previous run's tear-down just
// freed. Measured on this box: 38-40 us per 64 KiB file with the attribute,
// 45-200 us without, and a provider CPU profile of a slow bulk_write run
// shows half its time in openat. That was the 6-vs-10 ops/s bimodality of
// bulk_write between back-to-back runs. Failure (not ext4, not the owner)
// is ignored: the attribute is a placement hint.
func spreadSubdirs(dir string) {
	const (
		fsIocGetFlags = 0x80086601
		fsIocSetFlags = 0x40086602
		topdirFlag    = 0x00020000 // EXT4_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	if flags&topdirFlag != 0 {
		return
	}
	flags |= topdirFlag
	_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}

// A finished run removes its files but leaves its (empty) directories for
// staleAfter. ext4 places a new run directory in the block group with the
// fewest directories; a group this run just emptied would qualify again,
// and its freshly freed inodes are the ones spreadSubdirs is there to keep
// new files away from. One run in ten landed on such a group before the
// skeletons were kept.
const staleAfter = 150 * time.Second

// removeFiles deletes every file below dir and keeps the directories.
func removeFiles(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if e.IsDir() {
			removeFiles(path)
		} else {
			_ = os.Remove(path) // best effort: a leftover costs disk, not correctness
		}
	}
}

// reapRuns finishes off the run directories of finished runs, this
// process's and those of benchmark processes that are gone: skeletons older
// than staleAfter are removed, and one whose process died without cleaning
// up (SIGKILL, SIGPIPE) loses its files first.
func reapRuns(runRoot string) {
	ents, err := os.ReadDir(runRoot)
	if err != nil {
		return
	}
	for _, e := range ents {
		var pid, n int
		if _, err := fmt.Sscanf(e.Name(), "run-%d-%d", &pid, &n); err != nil {
			continue
		}
		path := filepath.Join(runRoot, e.Name())
		if pid == os.Getpid() {
			if inUse(path) {
				continue
			}
		} else if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			continue // its process is alive (or not ours to judge)
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleAfter {
			_ = os.RemoveAll(path)
		} else {
			removeFiles(path)
		}
	}
}

// inUse reports whether a deployment of this process still owns dir.
func inUse(dir string) bool {
	live.Lock()
	defer live.Unlock()
	for d := range live.deps {
		if d.dir == dir {
			return true
		}
	}
	return false
}

// newDeployment lays out a deployment under a fresh directory below
// runRoot. withMetrics adds -metrics-listen to every daemon (the traced
// configuration); end-to-end numbers are always measured without it.
func newDeployment(bin, runRoot string, withMetrics bool) (*deployment, error) {
	if err := os.MkdirAll(runRoot, 0o755); err != nil {
		return nil, err
	}
	spreadSubdirs(runRoot)
	reapRuns(runRoot)
	dir, err := os.MkdirTemp(runRoot, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	dep := &deployment{bin: bin, dir: dir, metrics: withMetrics}
	live.Lock()
	live.deps[dep] = true
	live.Unlock()

	n := 2 + numMeta + numProviders
	base, err := freePortBlock(2 * n)
	if err != nil {
		return nil, err
	}
	next := base
	port := func() string {
		next++
		return fmt.Sprintf("127.0.0.1:%d", next-1)
	}
	add := func(role, name string, hasDir bool, extra ...string) *daemon {
		d := &daemon{role: role, name: name, addr: port()}
		d.args = []string{"-role", role, "-listen", d.addr}
		if hasDir {
			d.dir = filepath.Join(dir, name)
			d.args = append(d.args, "-dir", d.dir)
		}
		d.args = append(d.args, extra...)
		d.obsAddr = port()
		dep.daemons = append(dep.daemons, d)
		return d
	}
	add(roleVM, "vm", true, "-lease-ttl", "10s")
	pm := add(rolePM, "pm", false)
	for i := 0; i < numMeta; i++ {
		add(roleMeta, fmt.Sprintf("meta%d", i), true)
	}
	for i := 0; i < numProviders; i++ {
		add(roleProv, fmt.Sprintf("prov%d", i), true,
			"-pm", pm.addr, "-store", "disk", "-heartbeat", "200ms")
	}
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return nil, err
	}
	return dep, nil
}

func (dep *deployment) byRole(role string) []*daemon {
	var out []*daemon
	for _, d := range dep.daemons {
		if d.role == role {
			out = append(out, d)
		}
	}
	return out
}

func (dep *deployment) addrs(role string) []string {
	var out []string
	for _, d := range dep.byRole(role) {
		out = append(out, d.addr)
	}
	return out
}

func (dep *deployment) vmAddr() string { return dep.addrs(roleVM)[0] }
func (dep *deployment) pmAddr() string { return dep.addrs(rolePM)[0] }

// start spawns every daemon and returns once each role answers on its port
// and the provider manager lists every provider as registered.
func (dep *deployment) start() error {
	// The pmanager must be up before providers register with it.
	first := append(dep.byRole(rolePM), dep.byRole(roleVM)...)
	first = append(first, dep.byRole(roleMeta)...)
	for _, d := range first {
		if err := dep.spawn(d); err != nil {
			return err
		}
	}
	for _, d := range first {
		if err := dep.waitServing(d); err != nil {
			return err
		}
	}
	// Providers join one at a time: the provider manager places chunks in
	// registration order, and that order should not be a race.
	for i, d := range dep.byRole(roleProv) {
		if err := dep.spawn(d); err != nil {
			return err
		}
		if err := dep.waitServing(d); err != nil {
			return err
		}
		if err := dep.waitProviders(dep.addrs(roleProv)[:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// waitServing blocks until d answers on its RPC port and, in a traced
// deployment, on its -metrics-listen port.
func (dep *deployment) waitServing(d *daemon) error {
	if err := waitDial(d.addr, d); err != nil || !dep.metrics {
		return err
	}
	return waitDial(d.obsAddr, d)
}

func (dep *deployment) spawn(d *daemon) error {
	logf, err := os.OpenFile(filepath.Join(dep.dir, "logs", d.name+".log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	args := d.args
	if dep.metrics {
		args = append(args[:len(args):len(args)], "-metrics-listen", d.obsAddr)
	}
	cmd := exec.Command(dep.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := startCmd(cmd); err != nil {
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // a killed child always reports an error
		close(done)
	}()
	d.cmd, d.done = cmd, done
	return nil
}

// waitDial blocks until addr accepts a TCP connection, failing early when
// the daemon behind it has already exited.
func waitDial(addr string, d *daemon) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if d.exited() {
			return fmt.Errorf("%s exited before serving %s (see logs/%s.log)", d.name, addr, d.name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving %s after 15s: %w", d.name, addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitProviders polls the provider manager until it lists the given
// providers as registered; allocation fails before that.
func (dep *deployment) waitProviders(want []string) error {
	cli := rpc.NewClient(rpc.NewTCPNetwork(), 2*time.Second)
	defer cli.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var resp pmanager.ProvidersResp
		err := cli.Call(dep.pmAddr(), pmanager.MethodProviders, &pmanager.Ack{}, &resp)
		if err == nil && containsAll(resp.Addrs, want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("provider manager lists %v, want %v (last error: %v)", resp.Addrs, want, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func containsAll(have, want []string) bool {
	set := make(map[string]bool, len(have))
	for _, h := range have {
		set[h] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

// killAll sends SIGKILL to every daemon and reaps it: the crash half of the
// durability check, and the fast path of teardown.
func (dep *deployment) killAll() {
	for _, d := range dep.daemons {
		if d.cmd != nil {
			_ = d.cmd.Process.Kill() // already-exited is fine
		}
	}
	for _, d := range dep.daemons {
		if d.cmd != nil {
			<-d.done
			d.cmd = nil
		}
	}
}

// restart brings a killed deployment back on the same directories and
// ports. withMetrics may differ from the first start (trace-overhead pass).
func (dep *deployment) restart(withMetrics bool) error {
	dep.metrics = withMetrics
	return dep.start()
}

// destroy kills the daemons and removes the run's files unless -keep.
func (dep *deployment) destroy() { dep.remove(live.keep) }

func (dep *deployment) remove(keep bool) {
	live.Lock()
	if !live.deps[dep] {
		live.Unlock()
		return
	}
	delete(live.deps, dep)
	live.Unlock()
	dep.killAll()
	if keep {
		// Out of reapRuns's reach, which only knows "run-<pid>-<n>".
		kept := filepath.Join(filepath.Dir(dep.dir), "kept-"+filepath.Base(dep.dir))
		if err := os.Rename(dep.dir, kept); err != nil {
			kept = dep.dir
		}
		fmt.Fprintf(os.Stderr, "kept run directory %s\n", kept)
		return
	}
	removeFiles(dep.dir) // the directories stay for staleAfter; see there
}

// checkAlive reports the first daemon that has died, with the tail of its
// log; a run over a half-dead deployment must not produce numbers.
func (dep *deployment) checkAlive() error {
	for _, d := range dep.daemons {
		if d.cmd != nil && d.exited() {
			logb, _ := os.ReadFile(filepath.Join(dep.dir, "logs", d.name+".log"))
			tail := strings.TrimSpace(string(logb))
			if len(tail) > 600 {
				tail = tail[len(tail)-600:]
			}
			return errors.New(d.name + " died: " + tail)
		}
	}
	return nil
}

// dataDirs lists the data directories of the given roles.
func (dep *deployment) dataDirs(roles ...string) []string {
	var out []string
	for _, role := range roles {
		for _, d := range dep.byRole(role) {
			if d.dir != "" {
				out = append(out, d.dir)
			}
		}
	}
	return out
}
