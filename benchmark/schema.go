package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// endToEndMetrics is the end-to-end half of the contract in BENCHMARK.json:
// every untraced run of every workload reports exactly these.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s", "lower"},
	{"a_ops_per_s", "1/s", "higher"},
	{"a_p50_ms", "ms", "lower"},
	{"b_ops_per_s", "1/s", "higher"},
	{"b_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"stored_bytes_per_user_byte", "B/B", "lower"},
}

func loadBenchmarkFile(repo string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}
