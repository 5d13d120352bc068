package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fasttrack/internal/sim"
)

// ScalingRow is one thread count of the scaling ablation: the per-event
// cost of each tool and the O(n) work counters, on an identical per-
// thread workload.
type ScalingRow struct {
	Threads  int
	Events   int
	NsPerEv  map[string]float64
	VCOps    map[string]int64
	ShadowKB map[string]int64
}

// ScalingTools are the tools the ablation compares.
var ScalingTools = []string{"FastTrack", "WriteEpochsOnly", "DJIT+", "BasicVC"}

// scalingProfile builds a mixed workload with the given thread count and
// a constant amount of work per thread, so per-event costs isolate the
// O(n) factor.
func scalingProfile(threads int) sim.Benchmark {
	return sim.Benchmark{
		Seed: int64(300 + threads),
		Profile: sim.Profile{
			Name:            fmt.Sprintf("scaling-%d", threads),
			Threads:         threads,
			ComputeBound:    true,
			ThreadLocalVars: 400,
			ThreadLocalReps: 3,
			ReadsPerSweep:   3,
			WritesPerSweep:  1,
			RandomSweep:     true,
			Locks:           threads,
			LockVars:        threads * 16,
			LockReps:        120,
			CSAccesses:      6,
			SharedVars:      1200,
			SharedReps:      4,
		},
	}
}

// Scaling is the thread-scaling ablation motivated by Section 1 of the
// paper: vector-clock operations cost O(n) in the thread count while
// FastTrack's epoch fast paths are O(1), so the gap between DJIT+/
// BasicVC and FastTrack must widen as threads grow. It is an extension
// of the paper's evaluation (which fixes each benchmark's thread count).
func Scaling(cfg Config, threadCounts []int) []ScalingRow {
	if len(threadCounts) == 0 {
		threadCounts = []int{2, 4, 8, 16, 32, 64}
	}
	var rows []ScalingRow
	for _, n := range threadCounts {
		b := scalingProfile(n)
		tr := b.Trace(cfg.Scale)
		base := BaseTime(tr, cfg.runs())
		row := ScalingRow{
			Threads:  n,
			Events:   len(tr),
			NsPerEv:  map[string]float64{},
			VCOps:    map[string]int64{},
			ShadowKB: map[string]int64{},
		}
		for _, tool := range ScalingTools {
			m := MeasureTool(tr, maker(tool, n), cfg, base)
			row.NsPerEv[tool] = float64(m.Elapsed.Nanoseconds()) / float64(len(tr))
			row.VCOps[tool] = m.Stats.VCOp
			row.ShadowKB[tool] = m.Stats.ShadowBytes / 1024
		}
		rows = append(rows, row)
	}
	return rows
}

// FprintScaling renders the scaling ablation.
func FprintScaling(w io.Writer, rows []ScalingRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tns/event\t\t\t\tO(n) VC ops\t\t\t\tShadow KB\t\t\t\tDJIT+/FT")
	fmt.Fprintln(tw, "Threads\tFT\tWEpoch\tDJIT+\tBasicVC\tFT\tWEpoch\tDJIT+\tBasicVC\tFT\tWEpoch\tDJIT+\tBasicVC\ttime ratio")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
			r.Threads,
			r.NsPerEv["FastTrack"], r.NsPerEv["WriteEpochsOnly"], r.NsPerEv["DJIT+"], r.NsPerEv["BasicVC"],
			r.VCOps["FastTrack"], r.VCOps["WriteEpochsOnly"], r.VCOps["DJIT+"], r.VCOps["BasicVC"],
			r.ShadowKB["FastTrack"], r.ShadowKB["WriteEpochsOnly"], r.ShadowKB["DJIT+"], r.ShadowKB["BasicVC"],
			r.NsPerEv["DJIT+"]/r.NsPerEv["FastTrack"])
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(identical per-thread workload; the DJIT+/FastTrack gap widens with n,")
	fmt.Fprintln(w, " the O(1)-vs-O(n) separation the epoch representation buys)")
}
