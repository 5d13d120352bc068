package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// starred marks non-compute-bound benchmarks like the paper's Table 1.
func starred(r BenchRow) string {
	if r.ComputeBound {
		return r.Bench
	}
	return r.Bench + "*"
}

// FprintTable1 renders Table 1: per-benchmark slowdowns and warning
// counts for all seven tools, plus the compute-bound averages.
func FprintTable1(w io.Writer, rows []BenchRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Program\tThreads\tEvents\tBase(ms)")
	for _, tool := range Table1Tools {
		fmt.Fprintf(tw, "\t%s", tool)
	}
	fmt.Fprint(tw, "\t|")
	warnTools := []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"}
	for _, tool := range warnTools {
		fmt.Fprintf(tw, "\t%s", tool)
	}
	fmt.Fprintln(tw, "\tSeeded")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f", starred(r), r.Threads, r.Events,
			float64(r.Base.Microseconds())/1000)
		for _, tool := range Table1Tools {
			fmt.Fprintf(tw, "\t%.1f", r.Cells[tool].Slowdown)
		}
		fmt.Fprint(tw, "\t|")
		for _, tool := range warnTools {
			fmt.Fprintf(tw, "\t%d", r.Cells[tool].Warnings)
		}
		fmt.Fprintf(tw, "\t%d\n", r.KnownRaces)
	}
	avg := Averages(rows, Table1Tools)
	fmt.Fprint(tw, "Average\t\t\t")
	for _, tool := range Table1Tools {
		fmt.Fprintf(tw, "\t%.1f", avg[tool])
	}
	fmt.Fprintln(tw)
	tw.Flush()
	fmt.Fprintln(w, "\n(slowdown = tool time / no-analysis iteration time; '*' rows excluded from averages)")
}

// FprintTable2 renders Table 2: vector clocks allocated and O(n) VC
// operations, DJIT+ vs FastTrack, with totals.
func FprintTable2(w io.Writer, rows []Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tVCs Allocated\t\tVC Operations\t")
	fmt.Fprintln(tw, "Program\tDJIT+\tFastTrack\tDJIT+\tFastTrack")
	var ta, tb, tc, td int64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", r.Bench, r.DJITAlloc, r.FTAlloc, r.DJITOps, r.FTOps)
		ta += r.DJITAlloc
		tb += r.FTAlloc
		tc += r.DJITOps
		td += r.FTOps
	}
	fmt.Fprintf(tw, "Total\t%d\t%d\t%d\t%d\n", ta, tb, tc, td)
	tw.Flush()
	if tb > 0 && td > 0 {
		fmt.Fprintf(w, "\nAllocation ratio DJIT+/FastTrack: %.0fx; operation ratio: %.0fx\n",
			float64(ta)/float64(tb), float64(tc)/float64(td))
	}
}

// FprintTable3 renders Table 3: memory overhead and slowdown under fine
// and coarse granularity.
func FprintTable3(w io.Writer, rows []Table3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\t\tMemory overhead (x)\t\t\t\tSlowdown (x)\t\t\t")
	fmt.Fprintln(tw, "\t\tFine\t\tCoarse\t\tFine\t\tCoarse\t")
	fmt.Fprintln(tw, "Program\tData(KB)\tDJIT+\tFT\tDJIT+\tFT\tDJIT+\tFT\tDJIT+\tFT")
	var sums [8]float64
	for _, r := range rows {
		cells := []float64{
			r.MemFine["DJIT+"], r.MemFine["FastTrack"],
			r.MemCoarse["DJIT+"], r.MemCoarse["FastTrack"],
			r.SlowFine["DJIT+"], r.SlowFine["FastTrack"],
			r.SlowCoarse["DJIT+"], r.SlowCoarse["FastTrack"],
		}
		fmt.Fprintf(tw, "%s\t%d", r.Bench, r.BaseBytes/1024)
		for i, c := range cells {
			fmt.Fprintf(tw, "\t%.1f", c)
			sums[i] += c
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "Average\t")
	for _, s := range sums {
		fmt.Fprintf(tw, "\t%.1f", s/float64(len(rows)))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// FprintRules renders the Figure 2 / Figure 5 rule-frequency percentages.
func FprintRules(w io.Writer, stats []RuleStats) {
	for _, s := range stats {
		reads, writes, syncs := s.OperationMix()
		fmt.Fprintf(w, "%s operation mix: reads %.1f%%, writes %.1f%%, other %.1f%%\n",
			s.Tool, reads, writes, syncs)
		if s.Tool == "FastTrack" {
			same, shared, excl, share := s.ReadRulePcts()
			fmt.Fprintf(w, "  reads:  SAME EPOCH %.1f%%  SHARED %.1f%%  EXCLUSIVE %.1f%%  SHARE %.2f%%\n",
				same, shared, excl, share)
			wsame, wexcl, wshared := s.WriteRulePcts()
			fmt.Fprintf(w, "  writes: SAME EPOCH %.1f%%  EXCLUSIVE %.1f%%  SHARED %.2f%%\n",
				wsame, wexcl, wshared)
		} else {
			same, _, rest, _ := s.ReadRulePcts()
			fmt.Fprintf(w, "  reads:  SAME EPOCH %.1f%%  [DJIT+ READ] %.1f%%\n", same, rest)
			wsame, wrest, _ := s.WriteRulePcts()
			fmt.Fprintf(w, "  writes: SAME EPOCH %.1f%%  [DJIT+ WRITE] %.1f%%\n", wsame, wrest)
		}
		fmt.Fprintf(w, "  VCs allocated: %d; O(n) VC operations: %d\n", s.Stats.VCAlloc, s.Stats.VCOp)
	}
}

// FprintCompose renders the Section 5.2 composition table.
func FprintCompose(w io.Writer, rows []ComposeRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Checker")
	for _, f := range ComposeFilters {
		fmt.Fprintf(tw, "\t%s", f)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprint(tw, r.Checker)
		for _, f := range ComposeFilters {
			fmt.Fprintf(tw, "\t%.1f", r.Slowdowns[f])
		}
		fmt.Fprintln(tw)
	}
	if len(rows) > 0 {
		fmt.Fprint(tw, "events forwarded")
		for _, f := range ComposeFilters {
			fmt.Fprintf(tw, "\t%d", rows[0].Forwarded[f])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(average slowdown over compute-bound benchmarks; prefilters forward only")
	fmt.Fprintln(w, " accesses not yet proven race-free, per Section 5.2 and footnote 6; the")
	fmt.Fprintln(w, " forwarded-event counts depend only on the prefilter)")
}

// FprintEclipse renders the Section 5.3 table.
func FprintEclipse(w io.Writer, rows []BenchRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Operation\tEvents\tBase(ms)")
	for _, tool := range EclipseTools {
		fmt.Fprintf(tw, "\t%s", tool)
	}
	fmt.Fprintln(tw, "\t|\tEraser warns\tDJIT+ warns\tFastTrack warns\tSeeded")
	totals := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f", r.Bench, r.Events, float64(r.Base.Microseconds())/1000)
		for _, tool := range EclipseTools {
			fmt.Fprintf(tw, "\t%.1f", r.Cells[tool].Slowdown)
		}
		fmt.Fprintf(tw, "\t|\t%d\t%d\t%d\t%d\n",
			r.Cells["Eraser"].Warnings, r.Cells["DJIT+"].Warnings,
			r.Cells["FastTrack"].Warnings, r.KnownRaces)
		for _, tool := range EclipseTools {
			totals[tool] += r.Cells[tool].Warnings
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\nTotal warnings: Eraser %d, DJIT+ %d, FastTrack %d\n",
		totals["Eraser"], totals["DJIT+"], totals["FastTrack"])
}
