// Command racebench regenerates the tables and figures of the FastTrack
// paper's evaluation (Section 5) from this module's synthetic workloads.
//
// Usage:
//
//	racebench [-table NAME] [-scale N] [-runs N] [-out FILE]
//
// Table 1: slowdown and warnings for seven tools on sixteen benchmarks.
// Table 2: vector clocks allocated / O(n) VC operations, DJIT+ vs
// FastTrack. Table 3: memory overhead and slowdown, fine vs coarse
// granularity. "rules": the Figure 2 rule-frequency percentages.
// "compose": the Section 5.2 prefilter experiment. "eclipse": the
// Section 5.3 Eclipse-shaped experiment. "ops": per-detector analysis
// cost (ns/event) and constant-time path shares. "batch":
// Monitor.IngestBatch throughput across batch sizes vs per-event
// Ingest. "provenance": FastTrack throughput with the provenance flight
// recorder off vs on across workload mixes. "speed": serial per-event
// throughput of FastTrack against in-run DJIT+ on memory-bound streams
// (DESIGN.md §13).
//
// For those four tables, -out FILE writes the JSON artifact in the
// fasttrack/bench/v2 envelope (BENCH_<table>.json in CI), then runs
// the table's gates: racebench exits 1 when one fails, so the exit
// status of `racebench -table X -out F` is the CI gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"fasttrack/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: all, 1, 2, 3, rules, compose, eclipse, scaling, accordion, ops, batch, provenance, speed")
	scale := flag.Float64("scale", 1, "workload scale factor")
	runs := flag.Int("runs", 3, "timed repetitions per cell (fastest kept)")
	out := flag.String("out", "", "for -table ops/batch/provenance/speed: also write the JSON artifact to this file and fail if its gates do")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Runs = *runs

	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "racebench:", err)
			os.Exit(1)
		}
	}
	// run renders one table and returns its artifact, or nil for the
	// tables that have none.
	run := func(name string) bench.Report {
		defer fmt.Println()
		switch name {
		case "1":
			fmt.Println("=== Table 1: slowdowns and warnings ===")
			bench.FprintTable1(os.Stdout, bench.Table1(cfg))
		case "2":
			fmt.Println("=== Table 2: vector clock allocation and usage ===")
			bench.FprintTable2(os.Stdout, bench.Table2(cfg))
		case "3":
			fmt.Println("=== Table 3: fine vs coarse granularity ===")
			bench.FprintTable3(os.Stdout, bench.Table3(cfg))
		case "rules":
			fmt.Println("=== Figure 2: operation mix and rule frequencies ===")
			bench.FprintRules(os.Stdout, bench.RuleFrequencies(cfg))
		case "compose":
			fmt.Println("=== Section 5.2: analysis composition ===")
			bench.FprintCompose(os.Stdout, bench.Compose(cfg))
		case "eclipse":
			fmt.Println("=== Section 5.3: Eclipse-shaped workloads ===")
			bench.FprintEclipse(os.Stdout, bench.Eclipse(cfg))
		case "scaling":
			fmt.Println("=== Ablation: thread-count scaling (O(1) epochs vs O(n) VCs) ===")
			bench.FprintScaling(os.Stdout, bench.Scaling(cfg, nil))
		case "accordion":
			fmt.Println("=== Extension: accordion-style dead-thread compaction ===")
			bench.FprintAccordion(os.Stdout, bench.Accordion(cfg, nil))
		case "ops":
			fmt.Println("=== Per-detector cost and operation mix ===")
			rep := bench.Ops(cfg, nil, nil)
			bench.FprintOps(os.Stdout, rep)
			return rep
		case "batch":
			fmt.Println("=== Extension: batched Monitor ingestion throughput ===")
			rep := bench.Batch(cfg, nil, 0)
			bench.FprintBatch(os.Stdout, rep)
			return rep
		case "provenance":
			fmt.Println("=== Extension: provenance flight-recorder overhead ===")
			rep := bench.Provenance(cfg, 0)
			bench.FprintProvenance(os.Stdout, rep)
			return rep
		case "speed":
			fmt.Println("=== Raw speed: FastTrack vs in-run DJIT+ ===")
			rep := bench.Speed(cfg)
			bench.FprintSpeed(os.Stdout, rep)
			return rep
		default:
			fmt.Fprintf(os.Stderr, "racebench: unknown table %q\n", name)
			os.Exit(2)
		}
		return nil
	}

	if *table == "all" {
		if *out != "" {
			fmt.Fprintln(os.Stderr, "racebench: -out needs a single artifact table")
			os.Exit(2)
		}
		for _, name := range []string{"1", "2", "3", "rules", "compose", "eclipse", "scaling", "accordion", "ops", "batch", "provenance", "speed"} {
			run(name)
		}
		return
	}
	rep := run(*table)
	if *out == "" {
		return
	}
	if rep == nil {
		fmt.Fprintf(os.Stderr, "racebench: table %q writes no artifact\n", *table)
		os.Exit(2)
	}
	f, err := os.Create(*out)
	check(err)
	check(bench.WriteJSON(f, rep))
	check(f.Close())
	fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
	if err := rep.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "racebench: %s gate failed:\n%v\n", *table, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "racebench: %s gates hold\n", *table)
}
