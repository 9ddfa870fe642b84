// Command blobseerd runs one BlobSeer role over TCP, so a real
// multi-process deployment can be assembled on one or many machines:
//
//	blobseerd -role vmanager  -listen :4400 -dir /var/blobseer/vm
//	blobseerd -role pmanager  -listen :4401
//	blobseerd -role metadata  -listen :4410 -dir /var/blobseer/meta0
//	blobseerd -role provider  -listen :4420 -pm host:4401 -store disk -dir /var/blobseer/chunks
//	blobseerd -role maint     -vm host:4400 -pm host:4401 -meta host:4410 -gc-interval 1m
//
// It only maps flags to a spec: internal/node starts the role (the cluster
// harness starts its in-process roles through the same constructors).
// Maintenance runs in role=maint alone: its intervals and tuning flags are
// refused on every other role. The README's "Deploying" section lists, per
// role, the flags it reads and the loops it runs beside its server; -help
// lists every flag.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/chunk"
	"repro/internal/maint"
	"repro/internal/node"
	"repro/internal/rpc"
)

func main() {
	role := flag.String("role", "", "vmanager | pmanager | metadata | provider | maint")
	listen := flag.String("listen", ":0", "TCP listen address")
	vmAddr := flag.String("vm", "", "version manager address, comma-separated list for an HA group (role=maint)")
	pmAddr := flag.String("pm", "", "provider manager address (role=provider|maint)")
	strategy := flag.String("strategy", "roundrobin", "placement strategy (role=pmanager)")
	storeKind := flag.String("store", "mem", "chunk store: mem | disk | cached (role=provider)")
	dir := flag.String("dir", "", "data directory: chunks + sidecar (role=provider, store=disk|cached), journal (role=vmanager), node log (role=metadata)")
	fsync := flag.Bool("fsync", true, "fsync journal appends, group-committed (role=vmanager|metadata|provider with -dir); -fsync=false survives process crashes only")
	cacheMB := flag.Int64("cache-mb", 256, "RAM cache size (store=cached)")
	capacityMB := flag.Int64("capacity-mb", 0, "declared storage capacity, 0 = unknown (role=provider; enables fullness-aware placement and rebalance)")
	hbInterval := flag.Duration("heartbeat", time.Second, "heartbeat interval (role=provider)")
	hbTimeout := flag.Duration("heartbeat-timeout", 5*time.Second, "provider liveness timeout (role=pmanager)")
	gcInterval := flag.Duration("gc-interval", 0, "background reclaim (GC) pass interval, 0 = off (role=maint)")
	repairInterval := flag.Duration("repair-interval", 0, "background replicate (repair + rebalance) pass interval, 0 = off (role=maint)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background verify (bit-rot scrub) pass interval, 0 = off (role=maint)")
	// -meta-repl and the actions' tuning (role=maint; -meta-repl also
	// role=vmanager with -lease-ttl).
	maintFlags := node.BindMaintFlags(flag.CommandLine)
	metaList := flag.String("meta", "", "comma-separated metadata provider addresses (role=maint; role=vmanager with -lease-ttl)")
	leaseTTL := flag.Duration("lease-ttl", 0, "write-lease TTL granted on Assign, 0 = leases off (role=vmanager)")
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

	env := node.NewEnv(node.EnvConfig{
		Network:          rpc.NewTCPNetwork(),
		MetricsListen:    *metricsListen,
		MetricsExemplars: *exemplarsOn,
		Pprof:            *pprofOn,
		TraceSample:      *traceSample,
		TraceSlow:        *traceSlow,
	})
	maintSpec := node.MaintSpec{
		VM:        list(*vmAddr),
		PM:        *pmAddr,
		Meta:      list(*metaList),
		Intervals: maint.Intervals{Reclaim: *gcInterval, Replicate: *repairInterval, Verify: *scrubInterval},
	}
	maintFlags.Apply(&maintSpec)
	// A vmanager used to run the maintenance loop itself; refusing its old
	// command line keeps an upgrade from silently collecting no garbage.
	if *role != "maint" {
		given := maintFlags.TuningGiven()
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "gc-interval" || f.Name == "repair-interval" || f.Name == "scrub-interval" {
				given = append(given, "-"+f.Name)
			}
		})
		if len(given) > 0 {
			log.Fatalf("blobseerd: %s configure maintenance, which runs only in -role maint, not role=%s", strings.Join(given, " "), *role)
		}
	}
	if *dir == "" && (*role == "vmanager" || *role == "metadata") {
		log.Printf("blobseerd: %s running VOLATILE (no -dir); state dies with the process", *role)
	}

	// A running role, whichever it is.
	var h interface {
		Addr() string
		Close()
	}
	var err error
	switch *role {
	case "vmanager":
		h, err = node.StartVManager(env, node.VManagerSpec{
			Listen:    *listen,
			Dir:       *dir,
			Fsync:     *fsync,
			LeaseTTL:  *leaseTTL,
			Peers:     list(*vmPeers),
			StandbyOf: list(*standbyOf),
			Advertise: *advertise,
			HATTL:     *haTTL,
			Repl:      *replMode,
			Meta:      maintSpec.Meta,
			MetaRepl:  maintSpec.MetaRepl,
		})
	case "pmanager":
		h, err = node.StartPManager(env, node.PManagerSpec{Listen: *listen, Strategy: *strategy, HeartbeatTimeout: *hbTimeout})
	case "metadata":
		h, err = node.StartMetadata(env, node.MetadataSpec{Listen: *listen, Dir: *dir, Fsync: *fsync})
	case "maint":
		h, err = node.StartMaint(env, maintSpec)
	case "provider":
		spec := node.ProviderSpec{Listen: *listen, PM: *pmAddr, Heartbeat: *hbInterval}
		spec.CapacityBytes, spec.FsyncSidecar = *capacityMB<<20, *fsync
		chunkDir := "blobseer-chunks"
		if *dir != "" {
			// The sidecar lives next to the chunks.
			chunkDir, spec.SidecarDir = *dir, filepath.Join(*dir, "sidecar")
		}
		spec.Store, err = makeStore(*storeKind, chunkDir, *cacheMB)
		must(err)
		h, err = node.StartProvider(env, spec)
	default:
		fmt.Fprintln(os.Stderr, "blobseerd: unknown -role; see -help")
		os.Exit(2)
	}
	must(err)
	must(env.ServeMetrics())
	if a := env.MetricsAddr(); a != "" {
		log.Printf("blobseerd: metrics at http://%s/metrics (traces at /debug/traces, profiles at /debug/pprof/ with -pprof)", a)
	}
	log.Printf("blobseerd: role=%s serving at %s", *role, h.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("blobseerd: shutting down")
	env.Close()
	h.Close()
}

// list splits a comma-separated flag value; empty means no entries.
func list(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
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
