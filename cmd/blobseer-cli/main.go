// Command blobseer-cli performs blob operations against a live TCP
// deployment (see cmd/blobseerd):
//
//	blobseer-cli -vm H:P -pm H:P -meta H:P[,H:P...] create -chunk 65536 -repl 2
//	blobseer-cli ... write  -blob 1 -offset 0 -file data.bin
//	blobseer-cli ... append -blob 1 -file more.bin
//	blobseer-cli ... read   -blob 1 -version 0 -offset 0 -size 1048576 -out out.bin
//	blobseer-cli ... stat   -blob 1
//	blobseer-cli ... list
//
// Retention:
//
//	blobseer-cli ... retention -blob 1 -keep 5     # keep the newest 5 versions
//	blobseer-cli ... prune     -blob 1 -upto 40    # reclaim versions 1..40
//	blobseer-cli ... delete    -blob 1             # delete the whole blob
//	blobseer-cli ... compact                       # snapshot + truncate the vmanager journal
//
// Maintenance (see blobseerd -role maint): one pass of the named action —
// reclaim (garbage collection), replicate (re-replicate + rebalance),
// verify (rate-limited bit-rot scrub; what it quarantines is healed by
// the same pass) — or of all three over one shared walk:
//
//	blobseer-cli ... maint reclaim -gc-orphan-grace 5m
//	blobseer-cli ... maint replicate -fullness-watermark 0.85 -repair-low 0.70
//	blobseer-cli ... maint verify -scrub-rate-mb 32
//	blobseer-cli ... maint all
//
// Deployment counters: the version manager's counter table (cumulative
// maintenance totals of all engines, and write leases; see blobseerd
// -lease-ttl) and each provider's:
//
//	blobseer-cli ... stats
//
// Distributed tracing (see README "Tracing"; roles expose span rings at
// /debug/traces on their -metrics-listen endpoints):
//
//	blobseer-cli -obs h:9100,h:9101 ... read -blob 1 -trace   # trace THIS read, print its waterfall
//	blobseer-cli -obs h:9100,h:9101 trace 4f3a21c09b7e6d15    # stitch one trace across roles
//	blobseer-cli -obs h:9100,h:9101 slowops -n 20             # flight-recorder outliers, worst first
//
// High availability: -vm accepts a comma-separated vmanager group; every
// subcommand then resolves the current leader (following not-leader
// redirects across failovers), and
//
//	blobseer-cli -vm h0:4400,h1:4400 ha-status
//
// shows each member's epoch, role, leader and standby replication lag.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/vmanager"
)

func main() {
	vm := flag.String("vm", "127.0.0.1:4400", "version manager address, comma-separated list for an HA group")
	pm := flag.String("pm", "127.0.0.1:4401", "provider manager address")
	metaList := flag.String("meta", "127.0.0.1:4410", "comma-separated metadata provider addresses")
	obsList := flag.String("obs", "", "comma-separated role -metrics-listen HTTP endpoints (for trace, slowops, stats exemplars, and -trace waterfalls)")
	traceOp := flag.Bool("trace", false, "trace this read/write/append end-to-end (sampling forced on) and print its waterfall from the -obs endpoints")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("blobseer-cli: missing subcommand (create|write|append|read|stat|list|retention|prune|delete|maint|stats|compact|ha-status|trace|slowops)")
	}
	vmAddrs := strings.Split(*vm, ",")
	obsAddrs := splitNonEmpty(*obsList)

	// -trace gives this process its own recorder and an always-sample
	// tracer: the CLI op is the root span, every RPC hop joins its trace,
	// and the waterfall stitches local client spans with whatever the
	// -obs role endpoints recorded.
	var traces *trace.Recorder
	var tracer *trace.Tracer
	if *traceOp {
		traces = trace.NewRecorder(0, 0)
		tracer = trace.New("client", "cli", traces, 1, 50*time.Millisecond)
	}

	client, err := core.NewClient(core.Config{
		Network:       rpc.NewTCPNetwork(),
		VMAddrs:       vmAddrs,
		PMAddr:        *pm,
		MetaProviders: strings.Split(*metaList, ","),
		Tracer:        tracer,
	})
	if err != nil {
		log.Fatalf("blobseer-cli: %v", err)
	}
	defer client.Close()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "create":
		fs := flag.NewFlagSet("create", flag.ExitOnError)
		chunkSize := fs.Uint64("chunk", 64<<10, "chunk size in bytes")
		repl := fs.Uint("repl", 1, "replication degree")
		fs.Parse(args)
		blob, err := client.CreateBlob(*chunkSize, uint32(*repl))
		must(err)
		fmt.Printf("blob %d created (chunk=%dB repl=%d)\n", blob.ID(), *chunkSize, *repl)
	case "write", "append":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		id := fs.Uint64("blob", 0, "blob ID")
		offset := fs.Uint64("offset", 0, "byte offset (write only)")
		file := fs.String("file", "-", "input file (- for stdin)")
		fs.Parse(args)
		data := readInput(*file)
		blob, err := client.OpenBlob(*id)
		must(err)
		ctx, act := tracer.StartOp(context.Background(), "cli."+cmd)
		if cmd == "write" {
			v, err := blob.WriteCtx(ctx, data, *offset)
			act.Finish(err)
			must(err)
			fmt.Printf("wrote %d bytes at %d: version %d\n", len(data), *offset, v)
		} else {
			v, off, err := blob.AppendCtx(ctx, data)
			act.Finish(err)
			must(err)
			fmt.Printf("appended %d bytes at %d: version %d\n", len(data), off, v)
		}
		printOpTrace(act, traces, obsAddrs)
	case "read":
		fs := flag.NewFlagSet("read", flag.ExitOnError)
		id := fs.Uint64("blob", 0, "blob ID")
		version := fs.Uint64("version", 0, "version (0 = latest)")
		offset := fs.Uint64("offset", 0, "byte offset")
		size := fs.Uint64("size", 0, "bytes to read (0 = to EOF)")
		out := fs.String("out", "-", "output file (- for stdout)")
		fs.Parse(args)
		blob, err := client.OpenBlob(*id)
		must(err)
		n := *size
		if n == 0 {
			total, err := blob.Size(*version)
			must(err)
			if total > *offset {
				n = total - *offset
			}
		}
		buf := make([]byte, n)
		ctx, act := tracer.StartOp(context.Background(), "cli.read")
		read, err := blob.ReadCtx(ctx, *version, buf, *offset)
		act.Finish(nil)
		if err != nil && err != io.EOF {
			must(err)
		}
		writeOutput(*out, buf[:read])
		fmt.Fprintf(os.Stderr, "read %d bytes\n", read)
		printOpTrace(act, traces, obsAddrs)
	case "stat":
		fs := flag.NewFlagSet("stat", flag.ExitOnError)
		id := fs.Uint64("blob", 0, "blob ID")
		fs.Parse(args)
		blob, err := client.OpenBlob(*id)
		must(err)
		v, size, err := blob.Latest()
		must(err)
		fmt.Printf("blob %d: chunk=%dB repl=%d latest-version=%d size=%dB\n",
			blob.ID(), blob.ChunkSize(), blob.Replication(), v, size)
	case "list":
		ids, err := client.ListBlobs()
		must(err)
		for _, id := range ids {
			fmt.Println(id)
		}
	case "retention":
		fs := flag.NewFlagSet("retention", flag.ExitOnError)
		id := fs.Uint64("blob", 0, "blob ID")
		keep := fs.Uint64("keep", 0, "keep the newest N versions (0 = keep all)")
		fs.Parse(args)
		blob, err := client.OpenBlob(*id)
		must(err)
		must(blob.SetRetention(*keep))
		keepLast, floor, err := blob.Retention()
		must(err)
		fmt.Printf("blob %d: keep-last=%d retain-from=v%d\n", *id, keepLast, floor)
	case "prune":
		fs := flag.NewFlagSet("prune", flag.ExitOnError)
		id := fs.Uint64("blob", 0, "blob ID")
		upTo := fs.Uint64("upto", 0, "reclaim versions 1..upto")
		fs.Parse(args)
		blob, err := client.OpenBlob(*id)
		must(err)
		floor, err := blob.Prune(*upTo)
		must(err)
		fmt.Printf("blob %d: versions below v%d reclaimable (swept by the next reclaim pass)\n", *id, floor)
	case "delete":
		fs := flag.NewFlagSet("delete", flag.ExitOnError)
		id := fs.Uint64("blob", 0, "blob ID")
		fs.Parse(args)
		must(client.DeleteBlob(*id))
		fmt.Printf("blob %d deleted (space returns on the next reclaim pass)\n", *id)
	case "maint":
		// The same flags and engine assembly as blobseerd -role maint, for
		// one pass and no schedule.
		spec := node.MaintSpec{VM: vmAddrs, PM: *pm, Meta: strings.Split(*metaList, ",")}
		fs := flag.NewFlagSet("maint", flag.ExitOnError)
		spec.BindTuningFlags(fs)
		if len(args) < 1 {
			log.Fatal("blobseer-cli: maint needs an action (reclaim|replicate|verify|all)")
		}
		action, err := maint.ParseAction(args[0])
		must(err)
		fs.Parse(args[1:])
		eng, err := node.NewMaint(node.NewEnv(node.EnvConfig{Network: rpc.NewTCPNetwork()}), spec)
		must(err)
		defer eng.Close()
		st, err := eng.Run(action)
		if st[vmanager.ScrubCorruptFound] > 0 {
			action |= maint.Replicate // the pass healed what verify quarantined
		}
		fmt.Println(action.Summary(&st, "\n"))
		must(err)
	case "stats":
		// One deployment-health snapshot: the version manager's counter
		// table plus each provider's — the human-readable cousin of
		// scraping every /metrics endpoint.
		rpcCli := client.RPC()
		var vc vmanager.Counters
		must(vmanager.NewCaller(rpcCli, vmAddrs).Call(context.Background(), vmanager.MethodMaintStats, &vmanager.Ack{}, &vc))
		fmt.Println(metrics.Summary(vmanager.CounterTable[:], vc[:], "\n", nil))

		var provs pmanager.ProvidersResp
		must(rpcCli.CallCtx(context.Background(), *pm, pmanager.MethodProviders, &pmanager.Ack{}, &provs))
		fmt.Printf("providers: %d live\n", len(provs.Addrs))
		for _, addr := range provs.Addrs {
			pc, err := provider.Stats(context.Background(), rpcCli, addr)
			if err != nil {
				fmt.Printf("  %-22s unreachable: %v\n", addr, err)
				continue
			}
			fmt.Printf("  %-22s %s\n", addr, metrics.Summary(provider.CounterTable[:], pc[:], " ", nil))
		}
		printWorstExemplars(obsAddrs)
	case "compact":
		var resp vmanager.CompactResp
		must(vmanager.NewCaller(client.RPC(), vmAddrs).Call(context.Background(), vmanager.MethodCompact, &vmanager.Ack{}, &resp))
		if !resp.Persistent {
			fmt.Println("version manager is volatile (no journal); nothing to compact")
			break
		}
		fmt.Printf("journal compacted; %d reclaimed version entries folded away\n", resp.CompactedVersions)
	case "ha-status":
		// One line per group member: role, epoch, who it follows, and —
		// on the leader — each standby's replication lag in records.
		for _, a := range vmAddrs {
			var st vmanager.HAStatusResp
			if err := client.RPC().CallCtx(context.Background(), a, vmanager.MethodHAStatus, &vmanager.Ack{}, &st); err != nil {
				fmt.Printf("%-22s unreachable: %v\n", a, err)
				continue
			}
			if !st.Enabled {
				fmt.Printf("%-22s role=single (replication off)\n", a)
				continue
			}
			fmt.Printf("%-22s role=%-7s epoch=%d leader=%s seq=%d takeovers=%d fences=%d noquorum=%d\n",
				a, st.Role, st.Epoch, st.Leader, st.StreamSeq, st.Takeovers, st.Fences, st.NoQuorumCommits)
			for _, sb := range st.Standbys {
				state := "syncing"
				lag := uint64(0)
				if sb.Synced {
					state = "synced"
					if st.StreamSeq > sb.AckSeq {
						lag = st.StreamSeq - sb.AckSeq
					}
				}
				fmt.Printf("  standby %-18s %-8s acked=%d lag=%d\n", sb.Addr, state, sb.AckSeq, lag)
			}
		}
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		fs.Parse(args)
		if fs.NArg() < 1 {
			log.Fatal("blobseer-cli: trace needs a trace id (hex)")
		}
		if len(obsAddrs) == 0 {
			log.Fatal("blobseer-cli: trace needs -obs endpoints to fetch spans from")
		}
		id, err := trace.ParseID(fs.Arg(0))
		must(err)
		spans := fetchSpans(obsAddrs, fmt.Sprintf("?trace=%016x", id))
		if len(spans) == 0 {
			log.Fatalf("blobseer-cli: no spans for trace %016x on %s (sampled out, ring-evicted, or wrong endpoints)", id, *obsList)
		}
		printWaterfall(os.Stdout, spans)
	case "slowops":
		fs := flag.NewFlagSet("slowops", flag.ExitOnError)
		topN := fs.Int("n", 20, "how many flight-recorder outliers to show")
		fs.Parse(args)
		if len(obsAddrs) == 0 {
			log.Fatal("blobseer-cli: slowops needs -obs endpoints to fetch spans from")
		}
		spans := fetchSpans(obsAddrs, "?slow=1")
		if len(spans) == 0 {
			fmt.Println("no slow spans recorded (flight recorder empty)")
			break
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Dur > spans[j].Dur })
		if len(spans) > *topN {
			spans = spans[:*topN]
		}
		fmt.Printf("%-10s %-16s %-9s %-14s %s\n", "DUR", "TRACE", "ROLE", "NODE", "METHOD")
		for _, sp := range spans {
			line := fmt.Sprintf("%-10s %016x %-9s %-14s %s",
				time.Duration(sp.Dur)*time.Microsecond, sp.Trace, sp.Role, sp.Node, sp.Method)
			if sp.Err != "" {
				line += "  err=" + sp.Err
			}
			fmt.Println(line)
		}
		fmt.Printf("\n(stitch any of these: blobseer-cli -obs %s trace <trace>)\n", *obsList)
	default:
		log.Fatalf("blobseer-cli: unknown subcommand %q", cmd)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// printOpTrace reports a -trace'd op's trace id and stitches its
// waterfall: the CLI's own client spans plus whatever the -obs role
// endpoints already recorded. No-op when -trace is off.
func printOpTrace(act *trace.Active, local *trace.Recorder, obsAddrs []string) {
	if act == nil {
		return
	}
	id := act.TraceID()
	fmt.Fprintf(os.Stderr, "trace %016x\n", id)
	spans := local.Spans(id, false)
	if len(obsAddrs) > 0 {
		spans = append(spans, fetchSpans(obsAddrs, fmt.Sprintf("?trace=%016x", id))...)
	}
	printWaterfall(os.Stderr, spans)
}

// fetchSpans pulls /debug/traces from every endpoint, tolerating dead
// ones (a partial waterfall beats none), and dedupes spans by id —
// querying an endpoint twice must not double every bar.
func fetchSpans(endpoints []string, query string) []*trace.Span {
	seen := make(map[uint64]bool)
	var out []*trace.Span
	for _, ep := range endpoints {
		resp, err := http.Get("http://" + ep + "/debug/traces" + query)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blobseer-cli: %s: %v\n", ep, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// A role with tracing disabled serves no /debug/traces; skip
			// it the same way an unreachable endpoint is skipped.
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "blobseer-cli: %s: /debug/traces: status %d\n", ep, resp.StatusCode)
			continue
		}
		var tr obs.TracesResponse
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "blobseer-cli: %s: decoding /debug/traces: %v\n", ep, err)
			continue
		}
		for _, sp := range tr.Spans {
			if !seen[sp.ID] {
				seen[sp.ID] = true
				out = append(out, sp)
			}
		}
	}
	return out
}

// printWaterfall renders one trace's spans as a parent-indented gantt.
// Spans whose parent is absent (sampled out on that hop, or evicted from
// a ring) surface as extra roots rather than disappearing.
func printWaterfall(w io.Writer, spans []*trace.Span) {
	if len(spans) == 0 {
		return
	}
	minStart, maxEnd := spans[0].Start, spans[0].Start+spans[0].Dur
	byID := make(map[uint64]*trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Start < minStart {
			minStart = sp.Start
		}
		if end := sp.Start + sp.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	children := make(map[uint64][]*trace.Span)
	var roots []*trace.Span
	for _, sp := range spans {
		if sp.Parent != 0 && byID[sp.Parent] != nil {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(list []*trace.Span) {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	byStart(roots)
	for _, list := range children {
		byStart(list)
	}

	total := maxEnd - minStart
	if total <= 0 {
		total = 1
	}
	const barWidth = 32
	fmt.Fprintf(w, "trace %016x · %d spans · %v\n", spans[0].Trace, len(spans),
		time.Duration(total)*time.Microsecond)
	var walk func(sp *trace.Span, depth int)
	walk = func(sp *trace.Span, depth int) {
		lo := int(int64(barWidth) * (sp.Start - minStart) / total)
		ln := int(int64(barWidth) * sp.Dur / total)
		if ln < 1 {
			ln = 1
		}
		if lo+ln > barWidth {
			ln = barWidth - lo
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("█", ln) +
			strings.Repeat(" ", barWidth-lo-ln)
		label := fmt.Sprintf("%*s%s", 2*depth, "", sp.Method)
		detail := fmt.Sprintf("%s/%s", sp.Role, sp.Node)
		line := fmt.Sprintf("%9s +%-8s |%s| %-32s %s",
			time.Duration(sp.Dur)*time.Microsecond,
			time.Duration(sp.Start-minStart)*time.Microsecond, bar, label, detail)
		if sp.Bytes > 0 {
			line += fmt.Sprintf(" %dB", sp.Bytes)
		}
		if sp.Err != "" {
			line += " err=" + sp.Err
		}
		fmt.Fprintln(w, line)
		for _, ch := range children[sp.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// exemplarRe matches the OpenMetrics exemplar suffix the registry
// renders when -metrics-exemplars is on (see metrics.renderExemplar).
var exemplarRe = regexp.MustCompile(
	`^(\w+)\{.*?role="([^"]*)".*?method="([^"]*)".*# \{trace_id="([0-9a-f]{16})"\} ([0-9.eE+-]+)`)

// printWorstExemplars scrapes each -obs endpoint's /metrics for
// histogram exemplars and prints the slowest per endpoint: the trace to
// chase when stats look bad. Endpoints without exemplars (flag off, no
// sampled traffic yet) print nothing.
func printWorstExemplars(obsAddrs []string) {
	for _, ep := range obsAddrs {
		resp, err := http.Get("http://" + ep + "/metrics")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		type worst struct {
			role, method, traceID string
			value                 float64
		}
		var top *worst
		for _, line := range strings.Split(string(body), "\n") {
			m := exemplarRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			var v float64
			fmt.Sscanf(m[5], "%g", &v)
			if top == nil || v > top.value {
				top = &worst{role: m[2], method: m[3], traceID: m[4], value: v}
			}
		}
		if top != nil {
			fmt.Printf("worst-exemplar %-22s trace=%s %s/%s %.1fms\n",
				ep, top.traceID, top.role, top.method, top.value*1000)
		}
	}
}

func readInput(path string) []byte {
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		must(err)
		return data
	}
	data, err := os.ReadFile(path)
	must(err)
	return data
}

func writeOutput(path string, data []byte) {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		must(err)
		return
	}
	must(os.WriteFile(path, data, 0o644))
}

func must(err error) {
	if err != nil {
		log.Fatalf("blobseer-cli: %v", err)
	}
}
