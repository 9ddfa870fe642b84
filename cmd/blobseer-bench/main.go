// Command blobseer-bench reproduces the BlobSeer evaluation: it runs the
// reconstructed experiments (-list prints the index) on the simulated
// testbed and prints one table/series per figure.
//
// Usage:
//
//	blobseer-bench                  # run everything at full scale
//	blobseer-bench -experiment E6   # one experiment
//	blobseer-bench -scale 0.25      # quicker, smaller data volumes
//	blobseer-bench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment ID (E1..E12) or 'all'")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Scale: *scale}
	var todo []bench.Experiment
	if *experiment == "all" {
		todo = bench.Registry
	} else {
		e, err := bench.Lookup(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		fmt.Printf("   (%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
