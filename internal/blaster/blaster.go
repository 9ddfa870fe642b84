// Package blaster is an open-loop traffic generator for a live BlobSeer
// deployment. Unlike a closed-loop driver, which issues the next operation
// only when the previous one returns — and therefore measures a system
// that is never overloaded — the blaster schedules operation ARRIVALS
// from a fixed-rate clock, independent of completions. Latency under an
// offered load, including the coordinated-omission-free tail, is exactly
// what a closed loop cannot see.
//
// The arrival process is deterministic-interval (one op every 1/rate
// seconds). Each arrival draws an operation from the configured
// read/write/append mix and a target blob from a zipf popularity
// distribution, then hands the job to a bounded worker pool. When every
// worker is busy and the queue is full the arrival is SHED and counted —
// never delayed — so the offered rate stays honest.
//
// Per-operation latency lands in a metrics.HistogramVec (fine-grained
// buckets, 50µs..~28min), which the Result summarizes as p50/p99/p999 and
// which can be registered on a metrics.Registry for live /metrics scrapes
// during a soak.
package blaster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Op names accepted in a Mix.
const (
	OpRead   = "read"
	OpWrite  = "write"
	OpAppend = "append"
)

// Config parameterizes one blast.
type Config struct {
	// Clients are the deployment handles ops run over; arrivals round-robin
	// across them. At least one is required.
	Clients []*core.Client
	// Rate is the offered arrival rate in ops/second (required, > 0).
	Rate float64
	// Duration bounds the arrival phase; in-flight ops are drained after.
	Duration time.Duration
	// Mix maps op name (read|write|append) to weight. Weights are
	// normalized; an empty mix means 100% reads.
	Mix map[string]float64
	// Blobs is the target blob population, created and pre-filled with one
	// OpBytes write each during setup (default 16).
	Blobs int
	// ZipfS is the zipf skew for blob popularity; must be > 1 for zipf
	// (values <= 1 fall back to uniform).
	ZipfS float64
	// OpBytes is the payload size per operation (default 64 KiB).
	OpBytes int
	// ChunkSize is the chunk size for created blobs (default 64 KiB).
	ChunkSize uint64
	// Replication is the data replication degree (default 1).
	Replication uint32
	// Workers bounds in-flight operations; arrivals beyond it are shed
	// (default 64).
	Workers int
	// Seed makes the op/blob draws reproducible (default 1).
	Seed int64
	// Registry, when set, additionally exposes the blaster's histograms
	// and counters for live scraping.
	Registry *metrics.Registry
	// Tracer, when set, opens a root span around every operation, so each
	// op's full RPC tree is stitchable by trace id — and the Result names
	// the trace ids of the worst-latency ops (see WorstK). The clients
	// should share the same recorder so role spans land next to these.
	Tracer *trace.Tracer
	// WorstK bounds the worst-latency op list in the Result (default 5).
	WorstK int
}

// Result is the blast summary, JSON-encodable for scripting.
type Result struct {
	OfferedRate  float64             `json:"offered_rate_ops_per_s"`
	AchievedRate float64             `json:"achieved_rate_ops_per_s"`
	DurationSecs float64             `json:"duration_s"`
	Arrivals     int64               `json:"arrivals"`
	Completed    int64               `json:"completed"`
	Shed         int64               `json:"shed"`
	Errors       int64               `json:"errors"`
	ErrorBudget  float64             `json:"error_fraction"`
	Ops          map[string]OpResult `json:"ops"`
	// WorstOps are the K worst-latency operations observed, worst first.
	// With tracing on, each op's trace id keys into /debug/traces (or
	// `blobseer-cli trace <id>`) for the span-by-span breakdown — the
	// bridge from "p999 is bad" to "THIS op spent 80ms in THIS RPC".
	WorstOps []WorstOp `json:"worst_ops,omitempty"`
}

// WorstOp identifies one high-latency operation.
type WorstOp struct {
	Op       string  `json:"op"`
	LatencyS float64 `json:"latency_s"`
	// TraceID is the op's trace id in hex ("" when tracing is off).
	// Sampled says whether head sampling kept the full span tree; slow
	// ops are force-retained by the flight recorder regardless.
	TraceID string `json:"trace_id,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
}

// OpResult is the per-operation latency summary.
type OpResult struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanS  float64 `json:"mean_s"`
	P50S   float64 `json:"p50_s"`
	P99S   float64 `json:"p99_s"`
	P999S  float64 `json:"p999_s"`
}

// ParseMix parses "read=0.7,write=0.2,append=0.1" into a Mix map.
func ParseMix(s string) (map[string]float64, error) {
	mix := make(map[string]float64)
	if strings.TrimSpace(s) == "" {
		return mix, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("blaster: mix entry %q is not op=weight", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("blaster: mix weight %q: want a non-negative number", v)
		}
		switch k {
		case OpRead, OpWrite, OpAppend:
			mix[k] += w
		default:
			return nil, fmt.Errorf("blaster: unknown op %q (want read|write|append)", k)
		}
	}
	return mix, nil
}

// Blaster drives one configured blast. Construct with New, run with Run.
type Blaster struct {
	cfg   Config
	ops   []string  // op names with weight > 0, sorted for determinism
	cum   []float64 // cumulative normalized weights, parallel to ops
	blobs []*core.Blob

	latency *metrics.HistogramVec // blobseer_blaster_op_seconds{op}
	counts  *metrics.CounterVec   // blobseer_blaster_ops_total{op}
	errs    *metrics.CounterVec   // blobseer_blaster_errors_total{op}
	shed    metrics.Counter

	worstMu sync.Mutex
	worst   []WorstOp // sorted worst-first, capped at cfg.WorstK
}

// New validates cfg and prepares the blob population: Blobs blobs are
// created and each seeded with one OpBytes write so reads hit real data.
func New(cfg Config) (*Blaster, error) {
	if len(cfg.Clients) == 0 {
		return nil, errors.New("blaster: at least one client is required")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("blaster: rate must be > 0")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("blaster: duration must be > 0")
	}
	if cfg.Blobs <= 0 {
		cfg.Blobs = 16
	}
	if cfg.OpBytes <= 0 {
		cfg.OpBytes = 64 << 10
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 64 << 10
	}
	if cfg.Replication == 0 {
		cfg.Replication = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = map[string]float64{OpRead: 1}
	}
	if cfg.WorstK <= 0 {
		cfg.WorstK = 5
	}

	b := &Blaster{
		cfg: cfg,
		latency: metrics.NewHistogramVec("blobseer_blaster_op_seconds",
			"End-to-end latency of blaster operations by op type.",
			[]string{"op"}, metrics.BlasterLatencyBuckets),
		counts: metrics.NewCounterVec("blobseer_blaster_ops_total",
			"Blaster operations completed (including errored) by op type.",
			[]string{"op"}),
		errs: metrics.NewCounterVec("blobseer_blaster_errors_total",
			"Blaster operations that returned an error, by op type.",
			[]string{"op"}),
	}
	var total float64
	for op, w := range cfg.Mix {
		if w > 0 {
			b.ops = append(b.ops, op)
			total += w
		}
	}
	if len(b.ops) == 0 {
		return nil, errors.New("blaster: mix has no positive weights")
	}
	sort.Strings(b.ops)
	var cum float64
	for _, op := range b.ops {
		cum += cfg.Mix[op] / total
		b.cum = append(b.cum, cum)
	}
	b.cum[len(b.cum)-1] = 1 // absorb float drift

	if cfg.Registry != nil {
		cfg.Registry.MustRegister(b.latency, b.counts, b.errs,
			metrics.CounterFunc("blobseer_blaster_shed_total",
				"Arrivals dropped because all workers were busy (open-loop overload signal).",
				nil, func() float64 { return float64(b.shed.Load()) }))
	}

	payload := make([]byte, cfg.OpBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < cfg.Blobs; i++ {
		cli := cfg.Clients[i%len(cfg.Clients)]
		blob, err := cli.CreateBlob(cfg.ChunkSize, cfg.Replication)
		if err != nil {
			return nil, fmt.Errorf("blaster: seeding blob %d: %w", i, err)
		}
		if _, err := blob.Write(payload, 0); err != nil {
			return nil, fmt.Errorf("blaster: seeding blob %d: %w", i, err)
		}
		b.blobs = append(b.blobs, blob)
	}
	return b, nil
}

type job struct {
	op   string
	blob *core.Blob
}

// Run executes the blast: an arrival clock at cfg.Rate for cfg.Duration,
// a pool of cfg.Workers executing ops, then a drain. It may be called once.
func (b *Blaster) Run() Result {
	cfg := b.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 && len(b.blobs) > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(b.blobs)-1))
	}
	pick := func() *core.Blob {
		if zipf != nil {
			return b.blobs[zipf.Uint64()]
		}
		return b.blobs[rng.Intn(len(b.blobs))]
	}
	pickOp := func() string {
		u := rng.Float64()
		for i, c := range b.cum {
			if u <= c {
				return b.ops[i]
			}
		}
		return b.ops[len(b.ops)-1]
	}

	payload := make([]byte, cfg.OpBytes)
	for i := range payload {
		payload[i] = byte(i * 131)
	}

	// Workers: the queue capacity equals the pool size, so at most
	// 2×Workers arrivals are admitted beyond completion; everything else
	// sheds immediately.
	jobs := make(chan job, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, cfg.OpBytes)
			for j := range jobs {
				ctx, act := cfg.Tracer.StartOp(context.Background(), "blaster."+j.op)
				start := time.Now()
				err := execute(ctx, j, payload, buf)
				elapsed := time.Since(start)
				act.Finish(err)
				b.latency.With(j.op).Observe(elapsed.Seconds())
				b.counts.With(j.op).Add(1)
				if err != nil {
					b.errs.With(j.op).Add(1)
				}
				b.noteLatency(j.op, elapsed, act)
			}
		}()
	}

	// Open-loop arrival clock: arrival i is due at start + i/rate,
	// computed from the schedule — not from when the previous op finished
	// — so a slow system faces the same offered load as a fast one.
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	var arrivals int64
	for {
		due := start.Add(time.Duration(arrivals) * interval)
		if due.Sub(start) >= cfg.Duration {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		arrivals++
		select {
		case jobs <- job{op: pickOp(), blob: pick()}:
		default:
			b.shed.Add(1)
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	return b.summarize(arrivals, elapsed)
}

func execute(ctx context.Context, j job, payload, buf []byte) error {
	switch j.op {
	case OpRead:
		_, err := j.blob.ReadCtx(ctx, 0, buf, 0)
		return err
	case OpWrite:
		_, err := j.blob.WriteCtx(ctx, payload, 0)
		return err
	case OpAppend:
		_, _, err := j.blob.AppendCtx(ctx, payload)
		return err
	default:
		return fmt.Errorf("blaster: unknown op %q", j.op)
	}
}

// noteLatency folds one completed op into the worst-K list. The list is
// tiny (K defaults to 5) and ops complete at most Workers at a time, so
// a mutex plus insertion sort is cheaper than anything clever.
func (b *Blaster) noteLatency(op string, elapsed time.Duration, act *trace.Active) {
	w := WorstOp{Op: op, LatencyS: elapsed.Seconds()}
	if act != nil {
		w.TraceID = fmt.Sprintf("%016x", act.TraceID())
		w.Sampled = act.Sampled()
	}
	b.worstMu.Lock()
	defer b.worstMu.Unlock()
	if len(b.worst) == b.cfg.WorstK && w.LatencyS <= b.worst[len(b.worst)-1].LatencyS {
		return
	}
	b.worst = append(b.worst, w)
	sort.Slice(b.worst, func(i, j int) bool { return b.worst[i].LatencyS > b.worst[j].LatencyS })
	if len(b.worst) > b.cfg.WorstK {
		b.worst = b.worst[:b.cfg.WorstK]
	}
}

func (b *Blaster) summarize(arrivals int64, elapsed time.Duration) Result {
	res := Result{
		OfferedRate:  b.cfg.Rate,
		DurationSecs: elapsed.Seconds(),
		Arrivals:     arrivals,
		Shed:         b.shed.Load(),
		Ops:          make(map[string]OpResult),
	}
	for _, op := range b.ops {
		h := b.latency.With(op)
		count := b.counts.With(op).Load()
		errs := b.errs.With(op).Load()
		res.Completed += count
		res.Errors += errs
		res.Ops[op] = OpResult{
			Count:  count,
			Errors: errs,
			MeanS:  h.Mean(),
			P50S:   h.Quantile(0.50),
			P99S:   h.Quantile(0.99),
			P999S:  h.Quantile(0.999),
		}
	}
	if elapsed > 0 {
		res.AchievedRate = float64(res.Completed) / elapsed.Seconds()
	}
	if res.Completed > 0 {
		res.ErrorBudget = float64(res.Errors) / float64(res.Completed)
	}
	b.worstMu.Lock()
	res.WorstOps = append([]WorstOp(nil), b.worst...)
	b.worstMu.Unlock()
	return res
}
