GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet guard bench-vet test race micro fuzz e2e-restart e2e-maint e2e-lease e2e-failover e2e-trace soak-smoke ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# One copy of the role wiring: only internal/node (and the packages that
# define these calls) may attach observers and tracers, register role
# metrics, or start the HA / heartbeat / lease-expiry side loops. blobseerd
# and the cluster harness go through node's constructors.
# One call signature: below the client API every RPC path takes a
# context.Context first, so the ambient-root client mode and the adapters
# that probed for a context-taking callee stay gone.
# One copy per hop: RPC bodies are encoded straight into the pooled frame,
# so the rpc layer never marshals a body into a buffer of its own.
# One transition path: every version-manager state change is a record that
# apply performs, so no per-kind record encoder or side-door journal append
# comes back. One buffer per chunk read: the disk store reads chunk files
# into the caller's (pooled) buffer, never into a fresh whole-file slice.
# One field list per message: Decode is a one-line adapter over the
# message's Wire method, and no list count is read as a bare u32 (Codec's
# Count bounds it). One RPC per operation: the retired singleton RPCs
# (provider.put, provider.has, meta.get, meta.stats) stay gone, and each
# role server has one constructor. One buffer per chunk read, client side:
# the read path fetches chunks into the caller's buffer (GetChunkInto),
# never through the copy-out GetChunkRange forms that keep their frames.
# One field list per durable format: the version-manager journal and
# snapshot and the provider sidecar are coded through their wire.Codec
# lists, never hand-written Put/read calls, and no decoder reads an
# optional tail (only the current formats decode).
# One maintenance host: a maintenance engine and its loop are assembled in
# internal/node alone (NewMaint, behind blobseerd -role maint, blobseer-cli
# maint and the cluster harness), so no other process grows a loop of its
# own.
# One flag set per role: each role's flags are declared in internal/node,
# beside the spec they fill, so blobseerd declares -role alone and never
# touches the process-global flag set. Providers join by heartbeat, so the
# retired registration RPC stays gone.
# One declaration per counter: provider and lease counters are rows of
# their counter tables, so the hand-kept twins (the lease stats RPC, the
# provider stats struct, GCStats) stay gone and internal/obs registers no
# provider or chunk family by hand.
# One fault surface: internal/fault holds tests only, which crash roles
# through the harness handles (one kill and one restart method per role),
# and the seed-era schedule runner, the fabric knobs no caller set and the
# test-only twins in obs, trace, metrics and vmanager stay gone.
# One chunk engine per medium and one placement policy: the RAM cache
# over the disk store, the read-path tamper wrapper, the random and
# least-loaded strategies and their -cache-mb/-strategy flags stay gone.
# And every Go file is gofmt-clean.
guard:
	@! grep -rnE 'SetRPCObserver\(|SetRPCTracer\(|obs\.Register|\.EnableHA\(|\.StartHeartbeats\(|\.ExpireLeases\(' --include='*.go' --exclude='*_test.go' cmd internal examples *.go | grep -vE '^internal/(node|obs|rpc|vmanager|pmanager|provider|meta)/'
	@! grep -rnE 'SetRootTraces|ContextStore|ctxStore|ctxCaller' --include='*.go' --exclude-dir=benchmark .
	@! grep -rn 'wire\.Marshal' --include='*.go' --exclude='*_test.go' internal/rpc
	@! grep -rnE 'logRecord|func enc[A-Z][A-Za-z0-9]*\(' --include='*.go' internal/vmanager
	@! grep -n 'os\.ReadFile' internal/chunk/disk.go
	@! grep -rnE 'Decode\((d|dec) \*wire\.Decoder\) \{$$' --include='*.go' --exclude='*_test.go' cmd internal examples *.go | grep -v '^internal/wire/'
	@! grep -rnE '(^|[^A-Za-z0-9_])(cnt|n|m|count|num[A-Za-z]*) :?= [a-z]+\.U32\(\)|make\([^)]*\.U32\(\)' --include='*.go' --exclude='*_test.go' cmd internal examples *.go | grep -v '^internal/wire/'
	@! grep -rnE '"(provider\.(put|has)|meta\.(get|stats))"' --include='*.go' --exclude='*_test.go' cmd internal examples *.go
	@! grep -rn 'func NewServerWith' --include='*.go' internal/provider internal/meta internal/vmanager
	@! grep -rnE 'GetChunkRangeCtx|GetChunkRange\(' --include='*.go' internal/core
	@! grep -rnE '\.Put(U8|U16|U32|U64|Bool|String)\(|\.(U8|U16|U32|U64|Bool|String|Count)\(\)' --include='*.go' --exclude='*_test.go' internal/vmanager internal/provider
	@! grep -rn '\.Tail()' --include='*.go' .
	@! grep -rnE 'maint\.(New|StartLoop)\(' --include='*.go' --exclude='*_test.go' cmd internal examples *.go | grep -vE '^internal/(node|maint)/'
	@! grep -rnE '\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(([^,]+, *)?"' --include='*.go' --exclude='*_test.go' cmd/blobseerd | grep -v '"role"'
	@! grep -rnE 'flag\.(CommandLine|Parse\(|Args?\(|NArg\(|NFlag\(|Visit|Lookup\(|Set\(|Usage|PrintDefaults)' --include='*.go' cmd/blobseerd
	@! grep -rnE '"pm\.register"|MethodRegister' --include='*.go' .
	@! grep -rnE 'LeaseStatsResp|MethodLeaseStats|"vm\.leasestats"|provider\.StatsResp|type StatsResp|GCStats' --include='*.go' .
	@! grep -rnE '"blobseer_(provider|chunk)_' --include='*.go' --exclude='*_test.go' internal/obs
	@test -z "$$(find internal/fault -name '*.go' ! -name '*_test.go')" || { echo 'internal/fault holds non-test Go files:'; find internal/fault -name '*.go' ! -name '*_test.go'; exit 1; }
	@! grep -rnE '\b(fault\.Start|DegradeThenCrash|KillVMIndex|RestartVMIndex|TimeScale|PerMessage|MaxBacklog|SetBandwidth|NodeStats|ServeHTTPWith|SetSlowThreshold|WorstExemplar|AbortWoven)\b' --include='*.go' --exclude-dir=benchmark .
	@! grep -rnE 'CachedStore|NewCachedStore|TamperStore|StrategyRandom|StrategyLeastLoaded|"(cache-mb|strategy)"' --include='*.go' cmd internal
	@test -z "$$(gofmt -l .)" || { echo 'gofmt -l lists:'; gofmt -l .; exit 1; }

# The benchmark is a Go module of its own (benchmark/go.mod replaces repro
# with ..), so root `go vet ./...` and `go test ./...` never see it. This
# step builds, vets and unit-tests it against the working tree, so an API
# change that breaks what it imports fails here, not in the bench driver.
bench-vet:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Data-path micro-benchmarks as a short smoke: a 64 KiB chunk get and a
# 32 x 64 KiB putchunks over TCP loopback, both also against a disk store
# with an fsync'd sidecar, and the client read path's 64 KiB get into the
# caller's buffer against that disk store (plus the rpc and wire
# benchmarks), 20 iterations each, with allocation counts.
micro:
	$(GO) test -run '^$$' -bench . -benchtime 20x -benchmem ./internal/wire/ ./internal/rpc/ ./internal/provider/

# Each fuzz target must run in its own invocation (go test allows one
# -fuzz pattern per package at a time).
fuzz:
	$(GO) test -fuzz=FuzzDecoder -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzMessageRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzNodeDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzWriteDescDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzPutNodesReqDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzPatchReplicasReqDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzWALFrame -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzCoalescedBatchTear -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzLeaseRecordReplay -fuzztime=$(FUZZTIME) ./internal/vmanager/
	$(GO) test -fuzz=FuzzReplicationDivergence -fuzztime=$(FUZZTIME) ./internal/vmanager/
	$(GO) test -fuzz=FuzzDigestWireDecode -fuzztime=$(FUZZTIME) ./internal/provider/
	$(GO) test -fuzz=FuzzTraceTrailer -fuzztime=$(FUZZTIME) ./internal/rpc/

# Crash-recovery end-to-end suite: kill -9 + restart of the version
# manager and metadata providers, in-harness (mid-write-storm) and as real
# OS processes, under the race detector.
e2e-restart:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryMidWriteStorm|TestRestartVolatileVMComesBackEmpty' ./internal/fault/
	$(GO) test -race -count=1 -run 'TestDaemonCrashRecovery' ./cmd/blobseerd/

# Maintenance-plane end-to-end suite, under the race detector. The whole
# internal/maint package: reclaim (keep-last-N, prune, blob delete,
# tombstone-before-list), replicate (kill-one-provider re-replication with
# batched-RPC bounds, watermark rebalance with stale-cache reader recovery,
# stray-replica reclaim after a dead provider returns), the shared-walk
# RPC bound and the report/pacing units. Chunk integrity: with one replica
# bit-rotted, concurrent readers must fail over without ever seeing wrong
# bytes, and one verify pass (RAM and disk engines) must quarantine the
# rot, re-replicate from a verified survivor, and purge the bad copy. Plus
# the provider-local verification units and durable sidecar restarts.
e2e-maint:
	$(GO) test -race -count=1 ./internal/maint/
	$(GO) test -race -count=1 -run 'TestCorruptReplicaReadFailover|TestScrubRestoresDegree' ./internal/fault/
	$(GO) test -race -count=1 -run 'TestSidecar|TestGetQuarantinesCorruptCopy|TestIngestRejectsCorruptPut|TestLegacyChunkBackfilledOnRead|TestVerifyChunkRecheck|TestScrubStepBudgetAndResume' ./internal/provider/

# Writer-lease end-to-end suite: writers kill -9'd between Assign and
# Commit and mid-upload must not wedge the publish frontier — lease expiry
# aborts them, weaves their identity trees server-side, un-parks the
# orphan sweep, and refuses late commits with a typed error.
e2e-lease:
	$(GO) test -race -count=1 -run 'TestWriterLease' ./internal/fault/

# Control-plane failover end-to-end suite: the version-manager leader
# kill -9'd mid-write-storm with a quorum standby; writes must resume
# within 2x the leadership TTL, zero committed versions may be lost, and
# the rejoining ex-leader must come back fenced (typed not-leader
# redirects) and resync to a byte-identical state digest. Plus the
# replication unit suite: convergence, synchronous quorum, a standby
# synced only once its catch-up snapshot is delivered, divergent
# journal-tail truncation; the group start / kill / restart-in-place units
# of the role assembly; and the same failover with real blobseerd
# processes, through the HA, lease and metrics flags.
e2e-failover:
	$(GO) test -race -count=1 -run 'TestFailoverMidWriteStorm|TestStandbyCrashDoesNotBlockCommits' -timeout 10m ./internal/fault/
	$(GO) test -race -count=1 -run 'TestReplication|TestQuorum|TestStandbySynced|TestFailover|TestDivergent|TestRebooted' ./internal/vmanager/
	$(GO) test -race -count=1 ./internal/node/
	$(GO) test -race -count=1 -run 'TestDaemonFailover' ./cmd/blobseerd/

# Distributed-tracing end-to-end suite, under the race detector: a
# sampled 256-chunk cold read must land client/vmanager/metadata/provider
# spans under one trace id; the trace must survive a leader failover
# (redirect) and metadata/provider restart-in-place (tracer re-attach);
# each background loop iteration (a maintenance pass, an expired lease's
# weave) must be one trace under its own root; plus the ring-buffer race
# hammer and the trace-trailer unit suite.
e2e-trace:
	$(GO) test -race -count=1 -run 'TestTrace|TestBackgroundPlanes' ./internal/cluster/
	$(GO) test -race -count=1 ./internal/trace/ ./internal/rpc/

# Open-loop soak smoke: 10 seconds of blaster traffic (read/write mix,
# zipf popularity) against a full in-process cluster with the metrics
# plane on. Fails on an error-budget breach (>1% errored ops) or a rate
# collapse. SOAK_SECS stretches it into a longer soak.
SOAK_SECS ?= 10
soak-smoke:
	BLASTER_SOAK_SECS=$(SOAK_SECS) $(GO) test -race -count=1 -run 'TestSoakSmoke' -timeout 10m ./internal/blaster/

ci: vet guard bench-vet build race micro fuzz e2e-restart e2e-maint e2e-lease e2e-failover e2e-trace soak-smoke

clean:
	$(GO) clean -testcache
