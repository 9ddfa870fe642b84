// Command blobseerd runs one BlobSeer service over TCP, so a real
// multi-process deployment can be assembled on one or many machines:
//
//	blobseerd -role vmanager  -listen :4400 -dir /var/blobseer/vm
//	blobseerd -role pmanager  -listen :4401 -strategy roundrobin
//	blobseerd -role metadata  -listen :4410 -dir /var/blobseer/meta0
//	blobseerd -role provider  -listen :4420 -pm host:4401 -store disk -dir /var/blobseer/chunks -capacity-mb 65536
//	blobseerd -role namespace -listen :4430                      # BSFS names
//	blobseerd -role maint     -vm host:4400 -pm host:4401 -meta host:4410 -gc-interval 1m -repair-interval 30s -scrub-interval 1h
//
// Durability: for the vmanager and metadata roles, -dir selects the
// journal/node-log directory; the daemon replays it on start, so a crashed
// process restarted on the same directory recovers its full state. Omit
// -dir to run those roles volatile (state dies with the process).
// Journal appends are fsynced by default — WAL group commit coalesces
// concurrent appends into one fsync, so machine-crash durability is cheap
// enough to always be on; -fsync=false trades it away for latency
// (appends then survive process crashes only).
//
// Maintenance: the maint role runs the background maintenance plane
// (internal/maint) against a live deployment — one loop, one action per
// non-zero interval: -gc-interval reclaims pruned versions, deleted blobs
// and aborted-write orphans; -repair-interval re-replicates chunks off
// dead providers and rebalances overfull ones (above
// -fullness-watermark, the cutoff clients also use for retry placement);
// -scrub-interval has every provider digest-verify its inventory at
// -scrub-rate-mb MiB/s, and what it quarantines is healed by the same
// pass. The vmanager role runs the same loop in-daemon when given any of
// the three intervals plus the deployment view (-pm and -meta).
// Providers declare capacity with -capacity-mb so placement and the
// rebalance watermarks can score fullness, and persist their put-age/
// tombstone/digest sidecar under -dir automatically.
//
// Write leases: -lease-ttl arms the vmanager's writer-failure detector —
// Assign grants each version a TTL'd lease, clients renew it while
// uploading, and a background pass auto-aborts versions whose lease
// lapses so a vanished writer cannot wedge the publish frontier. Give the
// vmanager -meta too and the expiry pass also weaves the aborted
// version's identity metadata server-side.
//
// High availability: a vmanager group replicates the journal stream to
// standbys and fails over on a TTL'd leadership lease (see README
// "High availability"). The first member bootstraps, the rest join as
// standbys; every member lists the others:
//
//	blobseerd -role vmanager -listen :4400 -dir /var/bs/vm0 -advertise h0:4400 -vm-peers h1:4400,h2:4400
//	blobseerd -role vmanager -listen :4400 -dir /var/bs/vm1 -advertise h1:4400 -standby-of h0:4400,h2:4400
//
// -repl picks the commit durability (quorum = default, async) and
// -ha-ttl the leadership lease TTL. Clients pass the whole group as a
// comma list wherever a -vm address is accepted.
//
// Clients connect with the library's NewClient given the version manager,
// provider manager and metadata provider addresses.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bsfs"
	"repro/internal/chunk"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/vmanager"
)

func main() {
	role := flag.String("role", "", "vmanager | pmanager | metadata | provider | namespace | maint")
	listen := flag.String("listen", ":0", "TCP listen address")
	vmAddr := flag.String("vm", "", "version manager address, comma-separated list for an HA group (role=maint)")
	pmAddr := flag.String("pm", "", "provider manager address (role=provider|maint; role=vmanager with a maintenance interval)")
	strategy := flag.String("strategy", "roundrobin", "placement strategy (role=pmanager)")
	storeKind := flag.String("store", "mem", "chunk store: mem | disk | cached (role=provider)")
	dir := flag.String("dir", "", "data directory: chunks + sidecar (role=provider, store=disk|cached), journal (role=vmanager), node log (role=metadata)")
	fsync := flag.Bool("fsync", true, "fsync journal appends, group-committed (role=vmanager|metadata|provider with -dir); -fsync=false survives process crashes only")
	cacheMB := flag.Int64("cache-mb", 256, "RAM cache size (store=cached)")
	capacityMB := flag.Int64("capacity-mb", 0, "declared storage capacity, 0 = unknown (role=provider; enables fullness-aware placement and rebalance)")
	hbInterval := flag.Duration("heartbeat", time.Second, "heartbeat interval (role=provider)")
	hbTimeout := flag.Duration("heartbeat-timeout", 5*time.Second, "provider liveness timeout (role=pmanager)")
	gcInterval := flag.Duration("gc-interval", 0, "background reclaim (GC) pass interval, 0 = off (role=maint|vmanager; vmanager needs -pm and -meta)")
	gcGrace := flag.Duration("gc-orphan-grace", 5*time.Minute, "minimum chunk age before orphan reclaim (role=maint|vmanager)")
	repairInterval := flag.Duration("repair-interval", 0, "background replicate (repair + rebalance) pass interval, 0 = off (role=maint|vmanager)")
	repairLow := flag.Float64("repair-low", 0.70, "rebalance fullness low watermark (role=maint|vmanager)")
	repairMoveMB := flag.Int64("repair-max-move-mb", 1024, "max payload the rebalancer migrates per pass (role=maint|vmanager)")
	fullness := flag.Float64("fullness-watermark", 0, "provider fullness cutoff in (0, 1]: the rebalance high watermark, shared with the placement plane (0 = keep the 0.85 default)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background verify (bit-rot scrub) pass interval, 0 = off (role=maint|vmanager)")
	scrubRateMB := flag.Int64("scrub-rate-mb", 32, "scrub verification rate limit in MiB/s, 0 = unlimited (role=maint|vmanager)")
	metaList := flag.String("meta", "", "comma-separated metadata provider addresses (role=maint; role=vmanager with a maintenance interval or -lease-ttl)")
	metaRepl := flag.Int("meta-repl", 1, "metadata replication degree of the deployment (role=maint; role=vmanager loops)")
	leaseTTL := flag.Duration("lease-ttl", 0, "write-lease TTL granted on Assign, 0 = leases off (role=vmanager)")
	leaseExpiry := flag.Duration("lease-expiry", 0, "lapsed-lease collection interval, 0 = lease-ttl/4 (role=vmanager)")
	advertise := flag.String("advertise", "", "address peers and clients dial this vmanager at; default = bound listen address (role=vmanager with -vm-peers/-standby-of)")
	vmPeers := flag.String("vm-peers", "", "comma-separated addresses of the other vmanager group members; this member bootstraps epoch 1 on a virgin journal (role=vmanager; requires -dir)")
	standbyOf := flag.String("standby-of", "", "like -vm-peers but never bootstraps: joins the group as a standby and syncs from the leader (role=vmanager; requires -dir)")
	haTTL := flag.Duration("ha-ttl", time.Second, "leadership lease TTL; a standby takes over after missing heartbeats for this long (role=vmanager HA)")
	replMode := flag.String("repl", "quorum", "replication durability: quorum = commit waits for a standby ack, async = commit is local-only (role=vmanager HA)")
	metricsListen := flag.String("metrics-listen", "", "HTTP address serving /metrics (Prometheus text) and /healthz; empty = exposition off (any role)")
	traceSample := flag.Int("trace-sample", 256, "distributed-tracing head sampling: record 1 in N operations (1 = every op, <=0 = tracing off); sampled spans serve at /debug/traces on -metrics-listen")
	traceSlow := flag.Duration("trace-slow", 50*time.Millisecond, "flight-recorder threshold: spans slower than this are retained even when unsampled (<=0 = flight recorder off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on -metrics-listen")
	exemplarsOn := flag.Bool("metrics-exemplars", false, "render OpenMetrics exemplars (bucket trace ids) on /metrics")
	flag.Parse()

	if *fullness != 0 && (*fullness <= 0 || *fullness > 1) {
		log.Fatalf("blobseerd: -fullness-watermark %v out of range (0, 1]", *fullness)
	}
	// The maintenance plane's settings, shared by role=maint and the
	// vmanager's in-daemon loop.
	intervals := maint.Intervals{Reclaim: *gcInterval, Replicate: *repairInterval, Verify: *scrubInterval}
	maintCfg := maint.Config{
		OrphanGrace:      *gcGrace,
		HighWater:        *fullness,
		LowWater:         *repairLow,
		MaxMoveBytes:     uint64(*repairMoveMB) << 20,
		ScrubBytesPerSec: uint64(*scrubRateMB) << 20,
	}
	if *scrubRateMB <= 0 {
		maintCfg.ScrubBytesPerSec = maint.NoRateLimit
	}

	network := rpc.NewTCPNetwork()
	var addr string
	var closer func()

	// Observability plane: one registry per daemon, role-labeled RPC
	// latency histograms on the server, plus whatever plane counters the
	// role owns. Off entirely unless -metrics-listen is given.
	var reg *metrics.Registry
	var rpcm *obs.RPCMetrics
	if *metricsListen != "" {
		reg = metrics.NewRegistry()
		reg.SetExemplars(*exemplarsOn)
		rpcm = obs.NewRPCMetrics(reg)
	}
	serverObs := func(role string) rpc.ServerObserver {
		if rpcm == nil {
			return nil
		}
		return rpcm.ServerObserver(role)
	}
	clientObs := func(role string) rpc.ClientObserver {
		if rpcm == nil {
			return nil
		}
		return rpcm.ClientObserver(role)
	}

	// Tracing plane: one span recorder per daemon; every role server and
	// background-plane client records into it. On by default at 1/256 —
	// cheap enough to ship on — and served at /debug/traces when
	// -metrics-listen is up.
	var traces *trace.Recorder
	if *traceSample > 0 {
		traces = trace.NewRecorder(0, 0)
	}
	tracer := func(role, node string) *trace.Tracer {
		return trace.New(role, node, traces, *traceSample, *traceSlow)
	}

	switch *role {
	case "vmanager":
		mgr := vmanager.NewManager()
		if *dir != "" {
			var err error
			mgr, err = vmanager.OpenManager(*dir, vmanager.Options{Fsync: *fsync})
			must(err)
			log.Printf("blobseerd: vmanager journal recovered from %s", *dir)
		} else {
			log.Printf("blobseerd: vmanager running VOLATILE (no -dir); state dies with the process")
		}
		mgr.SetLeaseTTL(*leaseTTL)
		s := vmanager.NewServerWithManager(network, *listen, mgr)
		s.SetRPCObserver(serverObs("vmanager"))
		must(s.Start())
		s.SetRPCTracer(tracer("vmanager", s.Addr()))

		// Replicated control plane: -vm-peers (bootstrap-capable) or
		// -standby-of (join-only) turns this member into part of an HA
		// group. The colocated maintenance loop then resolves the leader
		// across the whole group instead of pinning this instance.
		peers, bootstrap := *vmPeers, true
		if *standbyOf != "" {
			if peers != "" {
				log.Fatal("blobseerd: -vm-peers and -standby-of are mutually exclusive")
			}
			peers, bootstrap = *standbyOf, false
		}
		self := *advertise
		if self == "" {
			self = s.Addr()
		}
		vmGroup := s.Addr()
		var haCli *rpc.Client
		if peers != "" {
			if *dir == "" {
				log.Fatal("blobseerd: vmanager replication requires -dir (standbys replay a durable journal)")
			}
			if *replMode != "quorum" && *replMode != "async" {
				log.Fatalf("blobseerd: -repl must be quorum or async, got %q", *replMode)
			}
			haCli = rpc.NewClient(network, 10*time.Second)
			haCli.SetObserver(clientObs("vmanager"))
			haCli.SetTracer(tracer("vmanager", self))
			haCli.SetRootTraces(true)
			peerList := strings.Split(peers, ",")
			must(mgr.EnableHA(vmanager.HAConfig{
				Self:          self,
				Peers:         peerList,
				LeadershipTTL: *haTTL,
				Quorum:        *replMode == "quorum",
				Bootstrap:     bootstrap,
				Transport: func(addr string, req *vmanager.ReplicateReq) (*vmanager.ReplicateResp, error) {
					var resp vmanager.ReplicateResp
					if err := haCli.Call(addr, vmanager.MethodReplicate, req, &resp); err != nil {
						return nil, err
					}
					return &resp, nil
				},
			}))
			vmGroup = strings.Join(append([]string{self}, peerList...), ",")
			log.Printf("blobseerd: vmanager HA member %s (peers %s, ttl %v, repl %s)", self, peers, *haTTL, *replMode)
		}
		if reg != nil {
			obs.RegisterVManager(reg, s.Manager)
			if peers != "" {
				obs.RegisterVManagerHA(reg, self, s.Manager)
			}
		}
		stopMaint := startMaintLoop(network, vmGroup, *pmAddr, *metaList, *metaRepl, intervals, maintCfg,
			clientObs("maint"), tracer("maint", "maint"))
		stopLease := startLeaseLoop(network, mgr, *metaList, *metaRepl, *leaseTTL, *leaseExpiry, clientObs("lease"), tracer("lease", "lease"))
		addr, closer = s.Addr(), func() {
			stopLease()
			stopMaint()
			s.Close()
			mgr.Halt()
			if haCli != nil {
				haCli.Close()
			}
			mgr.Close()
		}
	case "pmanager":
		s, err := pmanager.NewServer(network, *listen, *strategy, *hbTimeout)
		must(err)
		s.SetRPCObserver(serverObs("pmanager"))
		must(s.Start())
		s.SetRPCTracer(tracer("pmanager", s.Addr()))
		if reg != nil {
			obs.RegisterPManager(reg, s.Manager())
		}
		addr, closer = s.Addr(), s.Close
	case "metadata":
		var store meta.ServerStore = meta.NewMemStore()
		if *dir != "" {
			ps, err := meta.NewPersistentStore(*dir, *fsync)
			must(err)
			store = ps
			log.Printf("blobseerd: metadata node log recovered from %s (%d nodes)", *dir, ps.Len())
		} else {
			log.Printf("blobseerd: metadata provider running VOLATILE (no -dir); nodes die with the process")
		}
		s := meta.NewServerWithStore(network, *listen, store)
		s.SetRPCObserver(serverObs("metadata"))
		must(s.Start())
		s.SetRPCTracer(tracer("metadata", s.Addr()))
		if reg != nil {
			obs.RegisterMeta(reg, s.Addr(), func() *meta.Server { return s })
		}
		addr, closer = s.Addr(), func() {
			s.Close()
			if c, ok := store.(interface{ Close() error }); ok {
				c.Close()
			}
		}
	case "namespace":
		s := bsfs.NewNameServer(network, *listen)
		s.SetRPCObserver(serverObs("namespace"))
		must(s.Start())
		s.SetRPCTracer(tracer("namespace", s.Addr()))
		addr, closer = s.Addr(), s.Close
	case "maint":
		if *vmAddr == "" || intervals == (maint.Intervals{}) {
			log.Fatal("blobseerd: role=maint requires -vm, -pm, -meta and at least one of -gc-interval, -repair-interval, -scrub-interval")
		}
		stop := startMaintLoop(network, *vmAddr, *pmAddr, *metaList, *metaRepl, intervals, maintCfg,
			clientObs("maint"), tracer("maint", "maint"))
		addr, closer = "(no RPC listener)", stop
	case "provider":
		if *pmAddr == "" {
			log.Fatal("blobseerd: -pm is required for role=provider")
		}
		chunkDir := *dir
		if chunkDir == "" {
			chunkDir = "blobseer-chunks"
		}
		store, err := makeStore(*storeKind, chunkDir, *cacheMB)
		must(err)
		opts := provider.Options{CapacityBytes: *capacityMB << 20}
		if *dir != "" {
			// The sidecar (durable put ages + tombstones) lives next to the
			// chunks; a restarted provider replays it, so deleted-blob
			// rejections persist and the orphan sweep skips the re-grace.
			opts.SidecarDir = *dir + "/sidecar"
			opts.FsyncSidecar = *fsync
		}
		s, err := provider.NewServerWithOptions(network, *listen, store, opts)
		must(err)
		s.SetRPCObserver(serverObs("provider"))
		must(s.Start())
		s.SetRPCTracer(tracer("provider", s.Addr()))
		if reg != nil {
			obs.RegisterProvider(reg, s.Addr(), func() *provider.Server { return s })
		}
		cli := rpc.NewClient(network, 10*time.Second)
		cli.SetObserver(clientObs("provider"))
		must(cli.Call(*pmAddr, pmanager.MethodRegister, &pmanager.RegisterReq{Addr: s.Addr()}, &pmanager.Ack{}))
		s.StartHeartbeats(cli, *pmAddr, *hbInterval)
		addr, closer = s.Addr(), func() { s.Close(); cli.Close(); store.Close() }
	default:
		fmt.Fprintln(os.Stderr, "blobseerd: unknown -role; see -help")
		os.Exit(2)
	}

	if *metricsListen != "" {
		h, err := obs.ServeHTTPWith(*metricsListen, obs.HTTPConfig{Registry: reg, Traces: traces, Pprof: *pprofOn})
		must(err)
		log.Printf("blobseerd: metrics at http://%s/metrics", h.Addr())
		if traces != nil {
			log.Printf("blobseerd: traces at http://%s/debug/traces", h.Addr())
		}
		if *pprofOn {
			log.Printf("blobseerd: profiles at http://%s/debug/pprof/", h.Addr())
		}
		inner := closer
		closer = func() { h.Close(); inner() }
	}
	log.Printf("blobseerd: role=%s serving at %s", *role, addr)
	waitForSignal()
	closer()
}

func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("blobseerd: shutting down")
}

// startMaintLoop runs the background maintenance loop (in-daemon for the
// vmanager role, standalone for role=maint) with one action per non-zero
// interval. It returns a stop function (a no-op when every interval is
// zero).
func startMaintLoop(network rpc.Network, vmAddr, pmAddr, metaList string, metaRepl int,
	iv maint.Intervals, cfg maint.Config, co rpc.ClientObserver, tr *trace.Tracer) func() {
	if iv == (maint.Intervals{}) {
		return func() {}
	}
	if pmAddr == "" || metaList == "" {
		log.Fatal("blobseerd: the maintenance loop requires -pm and -meta so passes can reach the deployment")
	}
	cli := rpc.NewClient(network, 0)
	cli.SetObserver(co)
	cli.SetTracer(tr)
	cli.SetRootTraces(true)
	cfg.Deployment = maint.Deployment{
		RPC:  cli,
		Meta: meta.NewClient(cli, strings.Split(metaList, ","), metaRepl, 0),
		VM:   vmanager.NewCaller(cli, strings.Split(vmAddr, ",")),
		PM:   pmAddr,
	}
	eng, err := maint.New(cfg)
	must(err)
	loop := maint.StartLoop(eng, iv, func(a maint.Action, st vmanager.Counters, err error) {
		// All planes: a verify pass that quarantined copies also ran replicate.
		if err != nil || st[vmanager.ScrubCorruptFound] > 0 {
			log.Printf("blobseerd: maint %s pass: err=%v (%s)", a, err, maint.All.Summary(&st, "; "))
		}
	})
	log.Printf("blobseerd: background maintenance of %s: reclaim every %v, replicate every %v, verify every %v (0s = off)",
		vmAddr, iv.Reclaim, iv.Replicate, iv.Verify)
	return func() {
		loop.Stop()
		cli.Close()
	}
}

// startLeaseLoop collects lapsed write leases inside the vmanager daemon.
// With -meta the expiry pass weaves each aborted version's identity tree
// server-side; without it the weave is left to reclaim's unwoven sweep (the
// abort — and the frontier unwedge — happens either way). Returns a stop
// function (a no-op when leases are off).
func startLeaseLoop(network rpc.Network, mgr *vmanager.Manager, metaList string, metaRepl int,
	ttl, interval time.Duration, co rpc.ClientObserver, tr *trace.Tracer) func() {
	if ttl <= 0 {
		return func() {}
	}
	var cli *rpc.Client
	var weaver vmanager.AbortWeaver
	if metaList != "" {
		cli = rpc.NewClient(network, 0)
		cli.SetObserver(co)
		cli.SetTracer(tr)
		cli.SetRootTraces(true)
		mc := meta.NewClient(cli, strings.Split(metaList, ","), metaRepl, 0)
		weaver = func(in meta.IdentityInput) error { return meta.WeaveIdentity(mc, in) }
	} else {
		log.Printf("blobseerd: -lease-ttl without -meta: expired versions abort unwoven (the reclaim action repairs the tree)")
	}
	if interval <= 0 {
		interval = ttl / 4
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if n, err := mgr.ExpireLeases(weaver); err != nil {
					log.Printf("blobseerd: lease expiry: %v (aborted %d)", err, n)
				}
			}
		}
	}()
	log.Printf("blobseerd: write leases on (ttl %v, expiry every %v)", ttl, interval)
	return func() {
		close(stop)
		<-done
		if cli != nil {
			cli.Close()
		}
	}
}

func makeStore(kind, dir string, cacheMB int64) (chunk.Store, error) {
	switch kind {
	case "mem":
		return chunk.NewMemStore(), nil
	case "disk":
		return chunk.NewDiskStore(dir, false)
	case "cached":
		backing, err := chunk.NewDiskStore(dir, false)
		if err != nil {
			return nil, err
		}
		return chunk.NewCachedStore(backing, cacheMB<<20), nil
	default:
		return nil, fmt.Errorf("unknown store kind %q", kind)
	}
}

func must(err error) {
	if err != nil {
		log.Fatalf("blobseerd: %v", err)
	}
}
