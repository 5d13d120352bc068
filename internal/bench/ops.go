package bench

import (
	"fmt"
	"io"

	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
)

// OpsReport is the machine-readable per-detector cost/operation-mix
// artifact: for every simulated workload and every tool, the analysis
// cost per event and the share of accesses handled by constant-time
// instrumentation paths. It is the benchmark-side counterpart of
// `racedetect -stats` and is written by `racebench -table ops -out`.
type OpsReport struct {
	Header
	Scale float64    `json:"scale"`
	Rows  []OpsBench `json:"rows"`
}

// OpsBench is one workload's measurements across the tool set.
type OpsBench struct {
	Bench   string    `json:"bench"`
	Threads int       `json:"threads"`
	Events  int       `json:"events"`
	Tools   []OpsTool `json:"tools"`
}

// OpsTool is one (workload, detector) cell.
type OpsTool struct {
	Tool       string  `json:"tool"`
	NsPerEvent float64 `json:"nsPerEvent"`
	Slowdown   float64 `json:"slowdown"`
	Warnings   int     `json:"warnings"`
	// FastPathPct is the percentage of memory accesses handled by the
	// tool's constant-time instrumentation paths (for FastTrack,
	// everything except READ SHARE inflation and WRITE SHARED; for the
	// epoch-based baselines, the same-epoch tests; zero for BasicVC,
	// whose every access is an O(n) vector-clock operation). It is
	// omitted for detectors without an access-rule taxonomy (the
	// lockset-only tools).
	FastPathPct *float64 `json:"fastPathPct,omitempty"`
	// SameEpochPct is the share of accesses whose epoch matched the
	// shadow word exactly — the paper's headline frequency. Omitted
	// when the tool has no same-epoch test.
	SameEpochPct *float64 `json:"sameEpochPct,omitempty"`
	Stats        rr.Stats `json:"stats"`
}

// OpsTools is the default tool set of the ops artifact: the Table 1
// detectors plus the Section 3 write-epochs ablation.
var OpsTools = []string{"Empty", "Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "WriteEpochsOnly", "FastTrack"}

// fastAccesses classifies st's accesses into constant-time paths for
// the named tool. ok is false for tools whose counters do not attribute
// every access to a rule.
func fastAccesses(tool string, st rr.Stats) (fast int64, ok bool) {
	accesses := st.Reads + st.Writes
	switch tool {
	case "Empty", "TL":
		// No per-access analysis at all.
		return accesses, true
	case "FastTrack":
		return accesses - st.ReadShare - st.WriteShared, true
	case "MultiRace":
		// The exclusive-counted paths run the vector-clock transition
		// machinery; owned/shared/same-epoch accesses stay in the
		// constant-time lockset fast path.
		return accesses - st.ReadExclusive - st.WriteExclusive, true
	case "DJIT+", "WriteEpochsOnly":
		// Only the same-epoch test avoids per-access vector-clock work.
		return st.ReadSameEpoch + st.WriteSameEpoch, true
	case "BasicVC":
		// Every access is an O(n) vector-clock operation.
		return 0, true
	}
	return 0, false
}

// opsCell builds one (workload, tool) cell from a measurement.
func opsCell(tool string, events int, m Measurement) OpsTool {
	cell := OpsTool{
		Tool:     tool,
		Slowdown: m.Slowdown,
		Warnings: m.Warnings,
		Stats:    m.Stats,
	}
	if events > 0 {
		cell.NsPerEvent = float64(m.Elapsed.Nanoseconds()) / float64(events)
	}
	accesses := m.Stats.Reads + m.Stats.Writes
	if fast, ok := fastAccesses(tool, m.Stats); ok && accesses > 0 {
		p := pct(fast, accesses)
		cell.FastPathPct = &p
	}
	if same := m.Stats.ReadSameEpoch + m.Stats.WriteSameEpoch; same > 0 {
		p := pct(same, accesses)
		cell.SameEpochPct = &p
	}
	return cell
}

// Ops measures every tool over every workload and assembles the
// artifact. A nil tools slice means OpsTools; a nil benchs slice means
// the full Table 1 workload set.
func Ops(cfg Config, tools []string, benchs []sim.Benchmark) OpsReport {
	if tools == nil {
		tools = OpsTools
	}
	if benchs == nil {
		benchs = sim.Benchmarks()
	}
	rep := OpsReport{Header: newHeader("ops", cfg), Scale: cfg.Scale}
	for _, b := range benchs {
		tr := b.Trace(cfg.Scale)
		base := BaseTime(tr, cfg.runs())
		ob := OpsBench{Bench: b.Name, Threads: b.Threads, Events: len(tr)}
		for _, name := range tools {
			m := MeasureTool(tr, maker(name, b.Threads), cfg, base)
			ob.Tools = append(ob.Tools, opsCell(name, len(tr), m))
		}
		rep.Rows = append(rep.Rows, ob)
	}
	return rep
}

// Check gates the artifact: the full Table 1 workload set, and on every
// workload a positive FastTrack cost with more than half (and at most
// all) of its accesses on constant-time paths.
func (rep OpsReport) Check() error {
	var g gates
	g.header(rep.Header, "ops")
	g.need(len(rep.Rows) >= 16, "%d benchmarks, want >= 16", len(rep.Rows))
	for _, b := range rep.Rows {
		g.need(b.Events > 0, "%s: no events", b.Bench)
		var ft *OpsTool
		for i := range b.Tools {
			if b.Tools[i].Tool == "FastTrack" {
				ft = &b.Tools[i]
			}
		}
		if ft == nil {
			g.need(false, "%s: no FastTrack cell", b.Bench)
			continue
		}
		g.need(ft.NsPerEvent > 0, "%s: FastTrack nsPerEvent %.2f, want > 0", b.Bench, ft.NsPerEvent)
		g.need(ft.FastPathPct != nil && *ft.FastPathPct > 50 && *ft.FastPathPct <= 100,
			"%s: FastTrack fastPathPct %s, want in (50, 100]", b.Bench, fmtPct(ft.FastPathPct))
	}
	return g.err()
}

// FprintOps renders the artifact as a human-readable table: one row per
// (workload, tool) with ns/event and the fast-path share.
func FprintOps(w io.Writer, rep OpsReport) {
	fmt.Fprintf(w, "Per-detector analysis cost and operation mix (scale %g, best of %d)\n\n", rep.Scale, rep.Runs)
	fmt.Fprintf(w, "%-12s %8s  %-16s %10s %8s %9s %9s\n",
		"bench", "events", "tool", "ns/event", "slowdn", "fast%", "sameEp%")
	for _, b := range rep.Rows {
		for i, c := range b.Tools {
			name, events := "", ""
			if i == 0 {
				name, events = b.Bench, fmt.Sprintf("%d", b.Events)
			}
			fmt.Fprintf(w, "%-12s %8s  %-16s %10.1f %7.1fx %9s %9s\n",
				name, events, c.Tool, c.NsPerEvent, c.Slowdown,
				fmtPct(c.FastPathPct), fmtPct(c.SameEpochPct))
		}
	}
}

func fmtPct(p *float64) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%.1f", *p)
}
