package main

// The -perf mode renders committed kernel perf records (BENCH_tensor.json
// from `make bench`) as aligned text tables — the human view of the
// machine-gated artifact, kept in benchtab because these are the
// performance tables of the repo the way Tables I–VI are the evaluation
// tables of the paper.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

type perfKernelBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	RefNsPerOp  float64 `json:"ref_ns_per_op"`
	Speedup     float64 `json:"speedup"`
}

type perfFile struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Runs       int               `json:"runs"`
	Smoke      bool              `json:"smoke"`
	Benchmarks []perfKernelBench `json:"benchmarks"`
}

// renderPerf prints one perf record as a table.
func renderPerf(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f perfFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	mode := "full"
	if f.Smoke {
		mode = "smoke"
	}
	fmt.Printf("%s  (%s, GOMAXPROCS=%d, %d runs, %s)\n", path, f.GoVersion, f.GOMAXPROCS, f.Runs, mode)
	if len(f.Benchmarks) == 0 {
		fmt.Println("  (no benchmarks)")
		return nil
	}
	fmt.Printf("  %-20s %14s %12s %14s %9s\n", "benchmark", "ns/op", "allocs/op", "ref ns/op", "speedup")
	for _, b := range f.Benchmarks {
		fmt.Printf("  %-20s %14.0f %12.1f %14.0f %8.2fx\n",
			b.Name, b.NsPerOp, b.AllocsPerOp, b.RefNsPerOp, b.Speedup)
	}
	return nil
}

// runPerf renders each comma-separated perf record path.
func runPerf(paths string) error {
	for i, p := range strings.Split(paths, ",") {
		if i > 0 {
			fmt.Println()
		}
		if err := renderPerf(strings.TrimSpace(p)); err != nil {
			return err
		}
	}
	return nil
}
