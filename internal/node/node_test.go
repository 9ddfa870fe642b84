package node_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// handle is what every role constructor returns.
type handle interface {
	Addr() string
	Close()
	Kill()
}

// networks runs f over both transports a role can be started on. addr maps
// a role name to a listen address: the name itself on the fabric, an
// ephemeral loopback port over TCP.
func networks(t *testing.T, f func(t *testing.T, env *node.Env, addr func(name string) string)) {
	t.Run("sim", func(t *testing.T) {
		env := node.NewEnv(node.EnvConfig{Network: rpc.NewSimNetwork(netsim.NewFabric(netsim.Config{})), Metrics: true, TraceSample: 1})
		f(t, env, func(name string) string { return name })
	})
	t.Run("tcp", func(t *testing.T) {
		env := node.NewEnv(node.EnvConfig{Network: rpc.NewTCPNetwork(), Metrics: true, TraceSample: 1})
		f(t, env, func(string) string { return "127.0.0.1:0" })
	})
}

func testClient(t *testing.T, env *node.Env) *rpc.Client {
	cli := rpc.NewClient(env.Network, 2*time.Second)
	t.Cleanup(cli.Close)
	return cli
}

// roleCase is one row of the restart table: how to start the role on an
// address over durable state in dir, how to put state into it through its
// RPC surface, and how to check that a later incarnation has that state
// (or, for a volatile role, merely serves).
type roleCase struct {
	start func(env *node.Env, listen, dir string) (handle, error)
	seed  func(t *testing.T, cli *rpc.Client, addr string)
	check func(t *testing.T, cli *rpc.Client, addr string)
	// wal, when set, appends to the given (stopped) incarnation's log
	// directly; it must fail, or that incarnation still holds the WAL the
	// next one is about to open.
	wal func(h handle) error
}

var metaNode = &meta.Node{
	Key:   meta.NodeKey{Blob: 7, Version: 1, Off: 0, Size: 1},
	Leaf:  true,
	Chunk: meta.ChunkRef{Providers: []string{"dp0"}, Key: chunk.Key{Blob: 7, Version: 1}, Length: 42},
}

func roleCases(deps *deployment) map[string]roleCase {
	return map[string]roleCase{
		"vmanager": {
			start: func(env *node.Env, listen, dir string) (handle, error) {
				return node.StartVManager(env, node.VManagerSpec{Listen: listen, Dir: dir, LeaseTTL: time.Minute})
			},
			seed: func(t *testing.T, cli *rpc.Client, addr string) {
				var resp vmanager.CreateResp
				if err := cli.Call(addr, vmanager.MethodCreate, &vmanager.CreateReq{ChunkSize: 1024, Replication: 1}, &resp); err != nil || resp.BlobID != 1 {
					t.Fatalf("vm.create = blob %d, %v", resp.BlobID, err)
				}
			},
			check: func(t *testing.T, cli *rpc.Client, addr string) {
				var info vmanager.InfoResp
				if err := cli.Call(addr, vmanager.MethodInfo, &vmanager.BlobRef{BlobID: 1}, &info); err != nil || info.ChunkSize != 1024 {
					t.Fatalf("journal not recovered: vm.info = %+v, %v", info, err)
				}
			},
			wal: func(h handle) error {
				_, err := h.(*node.VManager).Manager().Create(1024, 1)
				return err
			},
		},
		"metadata": {
			start: func(env *node.Env, listen, dir string) (handle, error) {
				return node.StartMetadata(env, node.MetadataSpec{Listen: listen, Dir: dir})
			},
			seed: func(t *testing.T, cli *rpc.Client, addr string) {
				if err := meta.NewClient(cli, []string{addr}, 1, 0).PutNodes([]*meta.Node{metaNode}); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, cli *rpc.Client, addr string) {
				got, err := meta.NewClient(cli, []string{addr}, 1, 0).GetNode(context.Background(), metaNode.Key)
				if err != nil || got.Chunk.Length != 42 {
					t.Fatalf("node log not recovered: %+v, %v", got, err)
				}
			},
			wal: func(h handle) error { return h.(*node.Metadata).Store().PutNodes([]*meta.Node{metaNode}) },
		},
		"provider": {
			start: func(env *node.Env, listen, dir string) (handle, error) {
				// A new process opens the chunk directory anew.
				store, err := chunk.NewDiskStore(filepath.Join(dir, "chunks"), false)
				if err != nil {
					return nil, err
				}
				spec := node.ProviderSpec{Listen: listen, PM: deps.pm.Addr(), Heartbeat: 10 * time.Millisecond, Store: store}
				spec.SidecarDir = filepath.Join(dir, "sidecar")
				return node.StartProvider(env, spec)
			},
			seed: func(t *testing.T, cli *rpc.Client, addr string) {
				if err := provider.PutChunk(context.Background(), cli, addr, chunk.Key{Blob: 3, Version: 1}, []byte("payload")); err != nil {
					t.Fatal(err)
				}
				if err := provider.Tombstone(context.Background(), cli, addr, []uint64{9}); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, cli *rpc.Client, addr string) {
				if got, err := provider.GetChunk(cli, addr, chunk.Key{Blob: 3, Version: 1}); err != nil || !bytes.Equal(got, []byte("payload")) {
					t.Fatalf("chunk not served after restart: %q, %v", got, err)
				}
				// The tombstone lives only in the sidecar.
				if err := provider.PutChunk(context.Background(), cli, addr, chunk.Key{Blob: 9, Version: 1}, []byte("late")); err == nil {
					t.Fatal("sidecar not recovered: a put for a tombstoned blob was accepted")
				}
				var members pmanager.ProvidersResp
				if err := cli.Call(deps.pm.Addr(), pmanager.MethodProviders, &pmanager.Ack{}, &members); err != nil {
					t.Fatal(err)
				}
				if n := len(slices.DeleteFunc(members.Addrs, func(a string) bool { return a != addr })); n != 1 {
					t.Fatalf("provider manager lists the restarted provider %d times, want once", n)
				}
			},
		},
		"pmanager": {
			start: func(env *node.Env, listen, dir string) (handle, error) {
				return node.StartPManager(env, node.PManagerSpec{Listen: listen, HeartbeatTimeout: time.Second})
			},
			seed: func(t *testing.T, cli *rpc.Client, addr string) {},
			check: func(t *testing.T, cli *rpc.Client, addr string) {
				if err := cli.Call(addr, pmanager.MethodProviders, &pmanager.Ack{}, &pmanager.ProvidersResp{}); err != nil {
					t.Fatalf("restarted provider manager does not serve: %v", err)
				}
			},
		},
		"maint": {
			start: func(env *node.Env, listen, dir string) (handle, error) {
				return node.StartMaint(env, deps.maintSpec(maint.Intervals{Reclaim: time.Hour}))
			},
			seed: func(t *testing.T, cli *rpc.Client, addr string) {},
		},
	}
}

// deployment is the rest of a deployment, for the roles that need one
// around them: a provider manager, a version manager, a metadata provider.
type deployment struct {
	pm *node.PManager
	vm *node.VManager
	md *node.Metadata
}

func startDeployment(t *testing.T, env *node.Env, addr func(string) string) *deployment {
	var d deployment
	var err error
	if d.pm, err = node.StartPManager(env, node.PManagerSpec{Listen: addr("pm"), HeartbeatTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.pm.Close)
	if d.md, err = node.StartMetadata(env, node.MetadataSpec{Listen: addr("md")}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.md.Close)
	if d.vm, err = node.StartVManager(env, node.VManagerSpec{Listen: addr("vm")}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.vm.Close)
	return &d
}

func (d *deployment) maintSpec(iv maint.Intervals) node.MaintSpec {
	return node.MaintSpec{VM: []string{d.vm.Addr()}, PM: d.pm.Addr(), Meta: []string{d.md.Addr()}, MetaRepl: 1, Intervals: iv}
}

// Every role, started, stopped either way and started again on the same
// address and directory, recovers its durable state and serves; the stopped
// incarnation holds neither the port nor its WAL.
func TestRestartInPlace(t *testing.T) {
	stops := map[string]func(handle){"kill": handle.Kill, "close": handle.Close}
	networks(t, func(t *testing.T, env *node.Env, addr func(string) string) {
		deps := startDeployment(t, env, addr)
		for role, rc := range roleCases(deps) {
			for how, stop := range stops {
				t.Run(role+"/"+how, func(t *testing.T) {
					cli, dir := testClient(t, env), t.TempDir()
					h, err := rc.start(env, addr(role+"-"+how), dir)
					if err != nil {
						t.Fatal(err)
					}
					bound := h.Addr()
					rc.seed(t, cli, bound)
					stop(h)
					if rc.wal != nil {
						if err := rc.wal(h); err == nil {
							t.Fatalf("the stopped %s still accepts appends to its WAL", role)
						}
					}
					if rc.check == nil { // serves no RPCs: starting again is the whole check
						bound = ""
					} else if err := cli.Call(bound, "any", &pmanager.Ack{}, &pmanager.Ack{}); err == nil || strings.Contains(err.Error(), "unknown method") {
						t.Fatalf("the stopped %s still answers at %s (%v)", role, bound, err)
					}
					h2, err := rc.start(env, bound, dir)
					if err != nil {
						t.Fatalf("starting %s again on %s: %v", role, bound, err)
					}
					defer h2.Close()
					if rc.check != nil {
						rc.check(t, cli, bound)
					} else if _, err := h2.(*node.Maint).Run(maint.Reclaim); err != nil {
						t.Fatalf("restarted maintenance plane cannot run a pass: %v", err)
					}
					h.Close() // closing the dead incarnation late must not disturb its successor
					if rc.check != nil {
						rc.check(t, cli, bound)
					}
				})
			}
		}
	})
}

// Invalid specs are refused with an error naming the problem, before
// anything is opened or bound.
func TestInvalidSpecs(t *testing.T) {
	network := rpc.NewSimNetwork(netsim.NewFabric(netsim.Config{}))
	env := node.NewEnv(node.EnvConfig{Network: network})
	dir := filepath.Join(t.TempDir(), "state")
	hour := maint.Intervals{Replicate: time.Hour}
	view := node.MaintSpec{VM: []string{"vm"}, PM: "pm", Meta: []string{"md"}}
	with := func(f func(*node.MaintSpec)) node.MaintSpec {
		ms := view
		f(&ms)
		return ms
	}
	vm := func(spec node.VManagerSpec) func() (handle, error) {
		spec.Listen, spec.Dir = "x", dir
		return func() (handle, error) { return node.StartVManager(env, spec) }
	}
	mt := func(spec node.MaintSpec) func() (handle, error) {
		return func() (handle, error) { return node.StartMaint(env, spec) }
	}
	cases := map[string]struct {
		start func() (handle, error)
		want  string
	}{
		"peers and standby-of": {vm(node.VManagerSpec{Peers: []string{"a"}, StandbyOf: []string{"b"}, Repl: "quorum"}), "mutually exclusive"},
		"repl mode":            {vm(node.VManagerSpec{Peers: []string{"a"}, Repl: "sometimes"}), "quorum or async"},
		"ha without dir": {func() (handle, error) {
			return node.StartVManager(env, node.VManagerSpec{Listen: "x", StandbyOf: []string{"a"}, Repl: "async"})
		}, "requires a journal directory"},
		"vmanager loop without pm": {vm(node.VManagerSpec{Maint: with(func(ms *node.MaintSpec) { ms.Intervals, ms.PM = hour, "" })}), "-pm"},
		"vmanager watermark":       {vm(node.VManagerSpec{Maint: with(func(ms *node.MaintSpec) { ms.Tuning.HighWater = -0.1 })}), "out of range (0, 1]"},
		"maint without intervals":  {mt(view), "at least one of"},
		"maint without vm":         {mt(with(func(ms *node.MaintSpec) { ms.Intervals, ms.VM = hour, nil })), "-vm"},
		"maint without meta":       {mt(with(func(ms *node.MaintSpec) { ms.Intervals, ms.Meta = hour, nil })), "-meta"},
		"maint watermark":          {mt(with(func(ms *node.MaintSpec) { ms.Intervals, ms.Tuning.HighWater = hour, 1.5 })), "out of range (0, 1]"},
		"provider without pm": {func() (handle, error) {
			return node.StartProvider(env, node.ProviderSpec{Listen: "x", Store: chunk.NewMemStore()})
		}, "-pm"},
		"provider without its store": {func() (handle, error) { return node.StartProvider(env, node.ProviderSpec{Listen: "x", PM: "pm"}) }, "chunk store"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := tc.start(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one naming %q", err, tc.want)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("a refused spec left state behind in %s", dir)
			}
			l, err := network.Listen("x")
			if err != nil {
				t.Fatalf("a refused spec left its address bound: %v", err)
			}
			l.Close()
		})
	}
}

func haStatus(t *testing.T, cli *rpc.Client, addr string) *vmanager.HAStatusResp {
	var st vmanager.HAStatusResp
	if err := cli.Call(addr, vmanager.MethodHAStatus, &vmanager.Ack{}, &st); err != nil {
		t.Fatalf("vm.hastatus at %s: %v", addr, err)
	}
	return &st
}

func eventually(t *testing.T, within time.Duration, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !ok(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, within)
		}
	}
}

// A group of two: the second member joins as a standby and syncs; when the
// leader is killed the survivor takes over, says so on vm.hastatus, and its
// own lease loop aborts the write a vanished writer left assigned on the
// old leader. The killed member restarts in place as a standby.
func TestGroupFailoverAndLeaseExpiry(t *testing.T) {
	const haTTL, leaseTTL = 150 * time.Millisecond, 300 * time.Millisecond
	networks(t, func(t *testing.T, env *node.Env, addr func(string) string) {
		cli := testClient(t, env)
		spec := func(name string) node.VManagerSpec {
			return node.VManagerSpec{
				Listen: addr(name), Dir: filepath.Join(t.TempDir(), name),
				LeaseTTL: leaseTTL, HATTL: haTTL, Repl: "quorum",
			}
		}
		var a, b *node.VManager
		var err error
		if sa, sb := spec("vm-a"), spec("vm-b"); sa.Listen != sb.Listen {
			// Addresses known up front: each spec lists the other, as
			// blobseerd's -vm-peers / -standby-of do. The standby first.
			sa.Peers, sb.StandbyOf = []string{sb.Listen}, []string{sa.Listen}
			if b, err = node.StartVManager(env, sb); err != nil {
				t.Fatal(err)
			}
			if a, err = node.StartVManager(env, sa); err != nil {
				t.Fatal(err)
			}
		} else {
			// ":0" addresses: start both, then form the group.
			if a, err = node.StartVManager(env, sa); err != nil {
				t.Fatal(err)
			}
			if b, err = node.StartVManager(env, sb); err != nil {
				t.Fatal(err)
			}
			if err := b.Join([]string{a.Addr()}, false); err != nil {
				t.Fatal(err)
			}
			if err := a.Join([]string{b.Addr()}, true); err != nil {
				t.Fatal(err)
			}
		}
		defer func() { a.Close(); b.Close() }()
		if st := haStatus(t, cli, b.Addr()); st.Role != "standby" {
			t.Fatalf("second member's role = %q, want standby", st.Role)
		}
		eventually(t, 5*time.Second, "standby synced", func() bool {
			st := haStatus(t, cli, a.Addr())
			return st.Role == "leader" && len(st.Standbys) == 1 && st.Standbys[0].Synced
		})

		// A writer gets a version assigned and vanishes.
		group := vmanager.NewCaller(cli, []string{a.Addr(), b.Addr()})
		var blob vmanager.CreateResp
		if err := group.Call(context.Background(), vmanager.MethodCreate, &vmanager.CreateReq{ChunkSize: 1024, Replication: 1}, &blob); err != nil {
			t.Fatal(err)
		}
		var wedge vmanager.AssignResp
		if err := group.Call(context.Background(), vmanager.MethodAssign, &vmanager.AssignReq{BlobID: blob.BlobID, Size: 1024}, &wedge); err != nil {
			t.Fatal(err)
		}

		a.Kill()
		eventually(t, 10*haTTL, "survivor reports leader", func() bool { return haStatus(t, cli, b.Addr()).Role == "leader" })
		eventually(t, 4*leaseTTL, "survivor's lease loop aborts the vanished writer", func() bool {
			var vi vmanager.VersionInfoResp
			err := group.Call(context.Background(), vmanager.MethodVersionInfo, &vmanager.VersionRef{BlobID: blob.BlobID, Version: wedge.Version}, &vi)
			return err == nil && vi.Failed
		})

		if a, err = a.Restart(); err != nil {
			t.Fatalf("restarting the killed leader in place: %v", err)
		}
		eventually(t, 5*time.Second, "old leader back as a synced standby", func() bool {
			st := haStatus(t, cli, b.Addr())
			return haStatus(t, cli, a.Addr()).Role == "standby" && len(st.Standbys) == 1 && st.Standbys[0].Synced
		})
	})
}
