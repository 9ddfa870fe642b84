package node

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/maint"
)

// Handle is a running role, whichever it is.
type Handle interface {
	Addr() string
	Close()
}

// Starter starts the spec a role's flags filled.
type Starter func(*Env) (Handle, error)

// Roles are blobseerd's roles. Each declares the role's own flags on fs,
// every one straight into a field of a fresh spec, and returns the
// Starter of that spec, to be called once fs is parsed. A role accepts
// these flags and the process-wide ones (EnvConfig.BindFlags), no others.
var Roles = map[string]func(fs *flag.FlagSet) Starter{
	"vmanager": func(fs *flag.FlagSet) Starter {
		var s VManagerSpec
		bindListen(fs, &s.Listen)
		fs.StringVar(&s.Dir, "dir", "", "journal directory, replayed on start; empty = volatile (state dies with the process)")
		bindFsync(fs, &s.Fsync, "journal")
		fs.DurationVar(&s.LeaseTTL, "lease-ttl", 0, "write-lease TTL granted on Assign, 0 = leases off")
		fs.Var((*addrs)(&s.Meta), "meta", "comma-separated metadata provider `addresses`; with -lease-ttl, versions whose lease expired are woven server-side")
		fs.IntVar(&s.MetaRepl, "meta-repl", 1, "the metadata replication degree (with -meta)")
		fs.Var((*addrs)(&s.Peers), "vm-peers", "comma-separated `addresses` of the other group members; this member bootstraps epoch 1 on a virgin journal (requires -dir)")
		fs.Var((*addrs)(&s.StandbyOf), "standby-of", "like -vm-peers (comma-separated `addresses`) but never bootstraps: joins the group as a standby and syncs from the leader (requires -dir)")
		fs.StringVar(&s.Advertise, "advertise", "", "address peers and clients dial this member at; default = bound listen address (with -vm-peers/-standby-of)")
		fs.DurationVar(&s.HATTL, "ha-ttl", time.Second, "leadership lease TTL; a standby takes over after missing heartbeats for this long")
		fs.StringVar(&s.Repl, "repl", "quorum", "replication durability: quorum = commit waits for a standby ack, async = commit is local-only")
		return func(env *Env) (Handle, error) {
			warnVolatile("vmanager", s.Dir)
			return StartVManager(env, s)
		}
	},
	"pmanager": func(fs *flag.FlagSet) Starter {
		var s PManagerSpec
		bindListen(fs, &s.Listen)
		fs.DurationVar(&s.HeartbeatTimeout, "heartbeat-timeout", 5*time.Second, "provider liveness timeout")
		return func(env *Env) (Handle, error) { return StartPManager(env, s) }
	},
	"metadata": func(fs *flag.FlagSet) Starter {
		var s MetadataSpec
		bindListen(fs, &s.Listen)
		fs.StringVar(&s.Dir, "dir", "", "node-log directory, replayed on start; empty = RAM only (nodes die with the process)")
		bindFsync(fs, &s.Fsync, "node-log")
		return func(env *Env) (Handle, error) {
			warnVolatile("metadata", s.Dir)
			return StartMetadata(env, s)
		}
	},
	"provider": func(fs *flag.FlagSet) Starter {
		var s ProviderSpec
		bindListen(fs, &s.Listen)
		fs.StringVar(&s.PM, "pm", "", "provider manager address")
		fs.DurationVar(&s.Heartbeat, "heartbeat", time.Second, "heartbeat interval")
		kind := fs.String("store", "mem", "chunk store: mem | disk")
		dir := fs.String("dir", "", "chunk directory (store=disk; default ./blobseer-chunks), with the durable sidecar (put ages, tombstones, digests) in <dir>/sidecar")
		mibVar(fs, &s.CapacityBytes, "capacity-mb", 0, 0, "declared storage capacity in `MiB`, 0 = unknown; enables fullness-aware placement and rebalance")
		bindFsync(fs, &s.FsyncSidecar, "sidecar")
		return func(env *Env) (Handle, error) {
			if *dir != "" && *kind == "mem" {
				// The sidecar under -dir would outlive the RAM chunks and
				// replay digests for chunks a restart lost.
				return nil, fmt.Errorf("node: provider -dir %s with -store mem keeps chunks in RAM; use -store disk to keep them under -dir", *dir)
			}
			chunkDir := "blobseer-chunks"
			if *dir != "" {
				chunkDir, s.SidecarDir = *dir, filepath.Join(*dir, "sidecar")
			}
			var err error
			if s.Store, err = openChunkStore(*kind, chunkDir); err != nil {
				return nil, err
			}
			return StartProvider(env, s)
		}
	},
	"maint": func(fs *flag.FlagSet) Starter {
		var s MaintSpec
		fs.Var((*addrs)(&s.VM), "vm", "version manager `address`, comma-separated list for an HA group")
		fs.StringVar(&s.PM, "pm", "", "provider manager address")
		fs.Var((*addrs)(&s.Meta), "meta", "comma-separated metadata provider `addresses`")
		fs.DurationVar(&s.Intervals.Reclaim, "gc-interval", 0, "background reclaim (GC) pass interval, 0 = off")
		fs.DurationVar(&s.Intervals.Replicate, "repair-interval", 0, "background replicate (repair + rebalance) pass interval, 0 = off")
		fs.DurationVar(&s.Intervals.Verify, "scrub-interval", 0, "background verify (bit-rot scrub) pass interval, 0 = off")
		s.BindTuningFlags(fs)
		return func(env *Env) (Handle, error) { return StartMaint(env, s) }
	},
}

// BindFlags declares the process-wide flags, which every role reads.
func (c *EnvConfig) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsListen, "metrics-listen", "", "HTTP address serving /metrics (Prometheus text) and /healthz; empty = exposition off")
	fs.BoolVar(&c.MetricsExemplars, "metrics-exemplars", false, "render OpenMetrics exemplars (bucket trace ids) on /metrics")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on -metrics-listen")
	fs.IntVar(&c.TraceSample, "trace-sample", 256, "distributed-tracing head sampling: record 1 in N operations (1 = every op, <=0 = tracing off); sampled spans serve at /debug/traces on -metrics-listen")
	fs.DurationVar(&c.TraceSlow, "trace-slow", 50*time.Millisecond, "flight-recorder threshold: spans slower than this are retained even when unsampled (<=0 = flight recorder off)")
}

// openChunkStore opens the chunk store -store names.
func openChunkStore(kind, dir string) (chunk.Store, error) {
	switch kind {
	case "mem":
		return chunk.NewMemStore(), nil
	case "disk":
		return chunk.NewDiskStore(dir, false)
	}
	return nil, fmt.Errorf("node: unknown chunk store %q (-store mem | disk)", kind)
}

// BindTuningFlags declares the deployment's metadata replication degree
// and the maintenance actions' tuning; blobseerd -role maint and
// blobseer-cli maint read the same flags.
func (s *MaintSpec) BindTuningFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.MetaRepl, "meta-repl", 1, "the deployment's metadata replication degree (walk resilience; deletes and patches always reach every member)")
	fs.DurationVar(&s.Tuning.OrphanGrace, "gc-orphan-grace", 5*time.Minute, "reclaim: minimum chunk age before orphan reclaim")
	fs.Float64Var(&s.Tuning.HighWater, "fullness-watermark", 0, "replicate: provider fullness in (0, 1] above which the rebalancer drains it (0 = the 0.85 default)")
	fs.Float64Var(&s.Tuning.LowWater, "repair-low", 0.70, "replicate: rebalance fullness low watermark")
	mibVar(fs, &s.Tuning.MaxMoveBytes, "repair-max-move-mb", 1024, 0, "replicate: max payload in `MiB` the rebalancer migrates per pass")
	mibVar(fs, &s.Tuning.ScrubBytesPerSec, "scrub-rate-mb", 32, maint.NoRateLimit, "verify: verification rate limit in `MiB`/s, <=0 = unlimited")
}

func bindListen(fs *flag.FlagSet, p *string) {
	fs.StringVar(p, "listen", ":0", "TCP listen address (the log line \"serving at <addr>\" names the bound one)")
}

func bindFsync(fs *flag.FlagSet, p *bool, what string) {
	fs.BoolVar(p, "fsync", true, "fsync "+what+" appends, group-committed (with -dir); -fsync=false survives process crashes only")
}

func warnVolatile(role, dir string) {
	if dir == "" {
		log.Printf("blobseerd: %s running VOLATILE (no -dir); state dies with the process", role)
	}
}

// addrs is a comma-separated address list flag; empty entries are dropped.
type addrs []string

func (a *addrs) String() string { return strings.Join(*a, ",") }

func (a *addrs) Set(s string) error {
	*a = strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
	return nil
}

// mib is a size flag given in MiB and kept in bytes; a count <= 0 keeps
// none instead (0, or a sentinel such as maint.NoRateLimit).
type mib[T int64 | uint64] struct {
	p    *T
	none T
}

// mibVar declares a mib flag over p, defaulting to def MiB.
func mibVar[T int64 | uint64](fs *flag.FlagSet, p *T, name string, def int64, none T, usage string) {
	m := &mib[T]{p: p, none: none}
	_ = m.Set(strconv.FormatInt(def, 10)) // a formatted integer always parses
	fs.Var(m, name, usage)
}

func (m *mib[T]) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return err
	}
	if *m.p = m.none; n > 0 {
		*m.p = T(n) << 20
	}
	return nil
}

func (m *mib[T]) String() string {
	if m.p == nil || *m.p == m.none {
		return "0"
	}
	return strconv.FormatInt(int64(*m.p>>20), 10)
}
