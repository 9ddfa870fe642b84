// Command benchmark is the repository's one benchmark: it builds
// cmd/blobseerd, deploys it as real OS processes on TCP loopback, drives a
// named workload through core.NewClient and prints every metric by name.
// See README.md in this directory for what is measured and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	wlName := flag.String("workload", "", "bulk_write | bulk_read | point_read | append_under_read")
	seed := flag.Uint64("seed", 1, "seed of the op lists and of the content written")
	seconds := flag.Int("seconds", 10, "measured time of one run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, -metrics-listen off; 1: per-layer metrics from the traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice with different seeds and compare against the bounds in BENCHMARK.json")
	keep := flag.Bool("keep", false, "leave the run directory (daemon logs, span dump) behind for triage")
	root := flag.String("root", "", "repository root (default: found upwards from the working directory)")
	flag.Parse()

	live.keep = *keep
	installSignalCleanup()
	defer cleanupAll() // runs on panic too

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	repo, err := findRoot(*root)
	if err != nil {
		return fail(err)
	}
	buildDir := filepath.Join(repo, ".bench_build")
	bin, err := buildDaemon(repo, buildDir)
	if err != nil {
		return fail(err)
	}
	runRoot := filepath.Join(buildDir, "runs")

	if *selfcheck {
		if err := runSelfcheck(bin, runRoot, repo, *seed, time.Duration(*seconds)*time.Second, logf); err != nil {
			return fail(err)
		}
		return 0
	}

	wl := findWorkload(*wlName)
	if wl == nil {
		return fail(fmt.Errorf("unknown -workload %q", *wlName))
	}
	if *seconds < 1 {
		return fail(errors.New("-seconds must be at least 1"))
	}
	r := &runner{bin: bin, runRoot: runRoot, seed: *seed, wl: wl, log: logf}
	var res *result
	if *traced == 0 {
		res, err = r.runEndToEnd(time.Duration(*seconds) * time.Second)
	} else {
		res, err = r.runTraced()
	}
	if err != nil {
		return fail(err)
	}
	printResult(wl.name, *seed, res)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the one JSON
// object the driver reads as the last line of standard output.
func printResult(workload string, seed uint64, res *result) {
	fmt.Printf("workload %s seed %d\n", workload, seed)
	for _, m := range res.metrics {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	frac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("  %-36s %14.6f (%d of %d)\n", "failed_ops_frac", frac, res.failed, res.attempted)
	fmt.Printf("  %-36s %14d\n", "lost_acked_writes", res.lostAcked)
	for _, n := range res.notes {
		fmt.Printf("  note: %s\n", n)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]mv{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// findRoot locates the repository: the directory holding cmd/blobseerd.
func findRoot(flagRoot string) (string, error) {
	if flagRoot != "" {
		return filepath.Abs(flagRoot)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "blobseerd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/blobseerd not found above the working directory; pass -root")
		}
		dir = parent
	}
}

// buildDaemon compiles the shipping daemon from the checkout's source.
func buildDaemon(repo, buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "blobseerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/blobseerd")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/blobseerd: %w", err)
	}
	return bin, nil
}
