package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// runSelfcheck is the benchmark's test of itself. It runs every workload's
// end-to-end set twice, the second time with another seed, and fails if any
// metric differs between the two by more than its bound in BENCHMARK.json:
// a benchmark that cannot repeat itself within its own bounds cannot judge
// a change. It then runs every traced pass twice with one seed and fails
// unless every per-op count is identical; the three counts that depend on
// the order of concurrent metadata replies (cacheOrderCounts) may differ by
// cacheOrderTolerance on the one workload whose cache evicts.
func runSelfcheck(bin, runRoot, repo string, seed uint64, measure time.Duration, logf func(string, ...any)) error {
	bf, err := loadBenchmarkFile(repo)
	if err != nil {
		return err
	}
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}
	var failures []string

	fmt.Printf("%-18s %-28s %14s %14s %9s %7s\n", "workload", "metric", fmt.Sprintf("seed %d", seed), fmt.Sprintf("seed %d", seed+1), "rel diff", "bound")
	for _, wl := range workloads {
		var runs [2]*result
		for i := range runs {
			r := &runner{bin: bin, runRoot: runRoot, seed: seed + uint64(i), wl: wl, log: logf}
			if runs[i], err = r.runEndToEnd(measure); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, r.seed, err)
			}
			if runs[i].failed > 0 {
				failures = append(failures, fmt.Sprintf("%s seed %d: %d of %d ops failed, %d acknowledged writes lost",
					wl.name, r.seed, runs[i].failed, runs[i].attempted, runs[i].lostAcked))
			}
		}
		for i, m := range runs[0].metrics {
			first, second := m.value, runs[1].metrics[i].value
			diff := (second - first) / first
			verdict := ""
			if math.Abs(diff) > bound[m.name] {
				verdict = "  OUTSIDE"
				failures = append(failures, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%%, bound %.0f%%",
					wl.name, m.name, first, second, 100*diff, 100*bound[m.name]))
			}
			fmt.Printf("%-18s %-28s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", wl.name, m.name, first, second, 100*diff, 100*bound[m.name], verdict)
		}
	}

	for _, wl := range workloads {
		var runs [2]*result
		for i := range runs {
			r := &runner{bin: bin, runRoot: runRoot, seed: seed, wl: wl, log: logf}
			if runs[i], err = r.runTraced(); err != nil {
				return fmt.Errorf("%s traced: %w", wl.name, err)
			}
		}
		exact, near := 0, 0
		for i, m := range runs[0].metrics {
			if !strings.HasSuffix(m.name, "_per_op") || strings.Contains(m.name, "cpu_ms") {
				continue // times and sizes vary; counts must not
			}
			second := runs[1].metrics[i].value
			switch {
			case second == m.value:
				exact++
			case wl.cacheEvicts && cacheOrderCounts[m.name] && math.Abs(second-m.value) <= cacheOrderTolerance*m.value:
				near++
				fmt.Printf("%-18s traced %s: %v then %v (depends on reply order, see cacheOrderCounts)\n", wl.name, m.name, m.value, second)
			default:
				failures = append(failures, fmt.Sprintf("%s traced %s: %v then %v", wl.name, m.name, m.value, second))
			}
		}
		fmt.Printf("%-18s traced twice: %d per-op counts identical, %d within %.0f%%\n", wl.name, exact, near, 100*cacheOrderTolerance)
	}

	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("selfcheck passed")
	return nil
}
