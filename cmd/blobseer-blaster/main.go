// Command blobseer-blaster drives open-loop load at a live BlobSeer
// deployment and prints a latency/error summary as JSON:
//
//	blobseer-blaster -vm host:4400 -pm host:4401 -meta host:4410 \
//	    -rate 200 -duration 10s -mix read=0.7,write=0.3 -zipf 1.1
//
// Arrivals come from a fixed-rate clock (open loop): the blaster never
// waits for an op to finish before launching the next, so the reported
// p99/p999 include queueing under the OFFERED load, not the throttled load
// a closed-loop benchmark would apply. Arrivals that find every worker
// busy are shed and counted. -metrics-listen additionally serves the
// blaster's live histograms (plus client-side RPC metrics) over /metrics
// for scraping during a soak.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/blaster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/trace"
)

func main() {
	vmAddr := flag.String("vm", "", "version manager address, comma-separated list for an HA group (required)")
	pmAddr := flag.String("pm", "", "provider manager address (required)")
	metaList := flag.String("meta", "", "comma-separated metadata provider addresses (required)")
	metaRepl := flag.Int("meta-repl", 1, "metadata replication degree of the deployment")
	rate := flag.Float64("rate", 100, "offered arrival rate, ops/second")
	duration := flag.Duration("duration", 10*time.Second, "blast duration")
	mixArg := flag.String("mix", "read=0.7,write=0.3", "op mix as op=weight[,op=weight...]; ops: read write append")
	blobs := flag.Int("blobs", 16, "blob population (created and seeded before the blast)")
	zipfS := flag.Float64("zipf", 1.1, "zipf skew for blob popularity (<=1 = uniform)")
	opBytes := flag.Int("op-bytes", 64<<10, "payload bytes per operation")
	chunkSize := flag.Uint64("chunk-size", 64<<10, "chunk size of created blobs")
	repl := flag.Uint("repl", 1, "data replication degree of created blobs")
	clients := flag.Int("clients", 4, "number of client stacks to spread load over")
	workers := flag.Int("workers", 64, "max in-flight ops; arrivals beyond are shed")
	seed := flag.Int64("seed", 1, "RNG seed for op/blob draws")
	timeout := flag.Duration("timeout", 30*time.Second, "per-RPC timeout")
	metricsListen := flag.String("metrics-listen", "", "serve live /metrics during the blast (empty = off)")
	traceSample := flag.Int("trace-sample", 1, "trace 1 in N blaster ops end-to-end (1 = every op, <=0 = off); worst-latency trace ids land in the JSON summary")
	traceSlow := flag.Duration("trace-slow", 50*time.Millisecond, "flight-recorder threshold for blaster-side spans (<=0 = off)")
	worstK := flag.Int("worst", 5, "how many worst-latency ops (with trace ids) to report")
	flag.Parse()

	if *vmAddr == "" || *pmAddr == "" || *metaList == "" {
		log.Fatal("blobseer-blaster: -vm, -pm and -meta are required")
	}
	mix, err := blaster.ParseMix(*mixArg)
	if err != nil {
		log.Fatal(err)
	}

	network := rpc.NewTCPNetwork()
	reg := metrics.NewRegistry()
	rpcm := obs.NewRPCMetrics(reg)
	// One recorder for the whole blaster process: the per-op root spans
	// and every client's RPC spans land together, so a worst-op trace id
	// resolves locally at /debug/traces — and remotely on each role's
	// endpoint, since the context crosses the wire.
	var traces *trace.Recorder
	if *traceSample > 0 {
		traces = trace.NewRecorder(0, 0)
	}
	if *clients <= 0 {
		*clients = 1
	}
	pool := make([]*core.Client, 0, *clients)
	for i := 0; i < *clients; i++ {
		cli, err := core.NewClient(core.Config{
			Network:         network,
			VMAddrs:         strings.Split(*vmAddr, ","),
			PMAddr:          *pmAddr,
			MetaProviders:   strings.Split(*metaList, ","),
			MetaReplication: *metaRepl,
			CallTimeout:     *timeout,
		})
		if err != nil {
			log.Fatalf("blobseer-blaster: client %d: %v", i, err)
		}
		cli.RPC().SetObserver(rpcm.ClientObserver("blaster"))
		cli.RPC().SetTracer(trace.New("client", fmt.Sprintf("blaster-c%d", i), traces, *traceSample, *traceSlow))
		defer cli.Close()
		pool = append(pool, cli)
	}

	b, err := blaster.New(blaster.Config{
		Clients:     pool,
		Rate:        *rate,
		Duration:    *duration,
		Mix:         mix,
		Blobs:       *blobs,
		ZipfS:       *zipfS,
		OpBytes:     *opBytes,
		ChunkSize:   *chunkSize,
		Replication: uint32(*repl),
		Workers:     *workers,
		Seed:        *seed,
		Registry:    reg,
		Tracer:      trace.New("blaster", "blaster", traces, *traceSample, *traceSlow),
		WorstK:      *worstK,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *metricsListen != "" {
		h, err := obs.ServeHTTP(*metricsListen, obs.HTTPConfig{Registry: reg, Traces: traces})
		if err != nil {
			log.Fatal(err)
		}
		defer h.Close()
		log.Printf("blobseer-blaster: metrics at http://%s/metrics", h.Addr())
	}

	log.Printf("blobseer-blaster: offering %.0f ops/s for %v (mix %s, %d blobs, zipf %.2f)",
		*rate, *duration, *mixArg, *blobs, *zipfS)
	res := b.Run()

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
	if res.ErrorBudget > 0.01 {
		os.Exit(1)
	}
}
