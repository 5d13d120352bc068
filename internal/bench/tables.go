package bench

import (
	"time"

	"fasttrack"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// Table1Tools is the tool order of the paper's Table 1.
var Table1Tools = []string{"Empty", "Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"}

// maker returns a fresh-tool constructor for a canonical tool name (see
// fasttrack.ToolNames), hinted with the benchmark's thread count.
func maker(name string, threads int) func() rr.Tool {
	return func() rr.Tool {
		tool, err := fasttrack.NewTool(name, fasttrack.Hints{Threads: threads})
		if err != nil {
			panic("bench: " + err.Error())
		}
		return tool
	}
}

// BenchRow is one benchmark's measurements across a set of tools.
type BenchRow struct {
	Bench        string
	ComputeBound bool
	Threads      int
	Events       int
	KnownRaces   int
	Base         time.Duration
	Cells        map[string]Measurement
}

// runRow measures the named tools over one benchmark.
func runRow(b sim.Benchmark, tools []string, cfg Config) BenchRow {
	tr := b.Trace(cfg.Scale)
	base := BaseTime(tr, cfg.runs())
	row := BenchRow{
		Bench:        b.Name,
		ComputeBound: b.ComputeBound,
		Threads:      b.Threads,
		Events:       len(tr),
		KnownRaces:   b.KnownRaces(),
		Base:         base,
		Cells:        make(map[string]Measurement, len(tools)),
	}
	for _, name := range tools {
		row.Cells[name] = MeasureTool(tr, maker(name, b.Threads), cfg, base)
	}
	return row
}

// Table1 reproduces the paper's Table 1: slowdown and warning count for
// every tool on every benchmark.
func Table1(cfg Config) []BenchRow {
	var rows []BenchRow
	for _, b := range sim.Benchmarks() {
		rows = append(rows, runRow(b, Table1Tools, cfg))
	}
	return rows
}

// Averages returns each tool's mean slowdown over the compute-bound rows
// (the paper excludes the '*' rows from averages).
func Averages(rows []BenchRow, tools []string) map[string]float64 {
	out := map[string]float64{}
	n := 0
	for _, r := range rows {
		if !r.ComputeBound {
			continue
		}
		n++
		for _, tool := range tools {
			out[tool] += r.Cells[tool].Slowdown
		}
	}
	if n == 0 {
		return out
	}
	for tool := range out {
		out[tool] /= float64(n)
	}
	return out
}

// Table2Row reproduces one row of the paper's Table 2: vector clocks
// allocated and O(n) vector-clock operations for DJIT+ vs FastTrack.
type Table2Row struct {
	Bench              string
	DJITAlloc, FTAlloc int64
	DJITOps, FTOps     int64
}

// Table2 reproduces the paper's Table 2 from the detectors' counters.
func Table2(cfg Config) []Table2Row {
	var rows []Table2Row
	for _, b := range sim.Benchmarks() {
		tr := b.Trace(cfg.Scale)
		base := BaseTime(tr, 1)
		one := cfg
		one.Runs = 1
		dj := MeasureTool(tr, maker("DJIT+", b.Threads), one, base)
		ft := MeasureTool(tr, maker("FastTrack", b.Threads), one, base)
		rows = append(rows, Table2Row{
			Bench:     b.Name,
			DJITAlloc: dj.Stats.VCAlloc,
			FTAlloc:   ft.Stats.VCAlloc,
			DJITOps:   dj.Stats.VCOp,
			FTOps:     ft.Stats.VCOp,
		})
	}
	return rows
}

// Table3Row reproduces one row of the paper's Table 3: memory overhead
// and slowdown for DJIT+ and FastTrack under fine and coarse granularity.
// Memory overhead is reported, as in the paper, as the ratio of heap use
// with analysis to heap use without: the baseline is the program's own
// data (one word per variable).
type Table3Row struct {
	Bench      string
	BaseBytes  int64
	MemFine    map[string]float64 // tool -> overhead factor
	MemCoarse  map[string]float64
	SlowFine   map[string]float64
	SlowCoarse map[string]float64
}

// Table3Tools are the two tools Table 3 compares.
var Table3Tools = []string{"DJIT+", "FastTrack"}

// Table3 reproduces the paper's Table 3.
func Table3(cfg Config) []Table3Row {
	var rows []Table3Row
	for _, b := range sim.Benchmarks() {
		tr := b.Trace(cfg.Scale)
		baseBytes := int64(len(tr.Vars())) * 8
		if baseBytes == 0 {
			baseBytes = 8
		}
		base := BaseTime(tr, cfg.runs())
		row := Table3Row{
			Bench:      b.Name,
			BaseBytes:  baseBytes,
			MemFine:    map[string]float64{},
			MemCoarse:  map[string]float64{},
			SlowFine:   map[string]float64{},
			SlowCoarse: map[string]float64{},
		}
		for _, g := range []rr.Granularity{rr.Fine, rr.Coarse} {
			c := cfg
			c.Granularity = g
			for _, tool := range Table3Tools {
				m := MeasureTool(tr, maker(tool, b.Threads), c, base)
				over := 1 + float64(m.Stats.ShadowBytes)/float64(baseBytes)
				if g == rr.Fine {
					row.MemFine[tool] = over
					row.SlowFine[tool] = m.Slowdown
				} else {
					row.MemCoarse[tool] = over
					row.SlowCoarse[tool] = m.Slowdown
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RuleStats aggregates the Figure 2 rule-frequency percentages over all
// benchmarks for one tool.
type RuleStats struct {
	Tool   string
	Reads  int64
	Writes int64
	Syncs  int64
	Stats  rr.Stats
}

// ReadPct returns the percentage of reads handled by the named rule
// counter extractor.
func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// OperationMix returns the read/write/sync percentages of all events.
func (r RuleStats) OperationMix() (reads, writes, syncs float64) {
	total := r.Reads + r.Writes + r.Syncs
	return pct(r.Reads, total), pct(r.Writes, total), pct(r.Syncs, total)
}

// ReadRulePcts returns the FastTrack read-rule shares (same epoch,
// shared, exclusive, share), as percentages of all reads.
func (r RuleStats) ReadRulePcts() (same, shared, exclusive, share float64) {
	return pct(r.Stats.ReadSameEpoch, r.Reads),
		pct(r.Stats.ReadShared, r.Reads),
		pct(r.Stats.ReadExclusive, r.Reads),
		pct(r.Stats.ReadShare, r.Reads)
}

// WriteRulePcts returns the write-rule shares (same epoch, exclusive,
// shared) as percentages of all writes.
func (r RuleStats) WriteRulePcts() (same, exclusive, shared float64) {
	return pct(r.Stats.WriteSameEpoch, r.Writes),
		pct(r.Stats.WriteExclusive, r.Writes),
		pct(r.Stats.WriteShared, r.Writes)
}

// RuleFrequencies reproduces the Figure 2 / Figure 5 percentages by
// running FastTrack and DJIT+ over every benchmark and aggregating their
// rule counters.
func RuleFrequencies(cfg Config) []RuleStats {
	out := []RuleStats{{Tool: "FastTrack"}, {Tool: "DJIT+"}}
	for _, b := range sim.Benchmarks() {
		tr := b.Trace(cfg.Scale)
		for i, name := range []string{"FastTrack", "DJIT+"} {
			tool := maker(name, b.Threads)()
			d := rr.NewDispatcher(tool)
			d.Feed(tr)
			st := tool.Stats()
			out[i].Reads += st.Reads
			out[i].Writes += st.Writes
			out[i].Syncs += st.Syncs
			acc := &out[i].Stats
			acc.ReadSameEpoch += st.ReadSameEpoch
			acc.ReadShared += st.ReadShared
			acc.ReadExclusive += st.ReadExclusive
			acc.ReadShare += st.ReadShare
			acc.WriteSameEpoch += st.WriteSameEpoch
			acc.WriteExclusive += st.WriteExclusive
			acc.WriteShared += st.WriteShared
			acc.VCAlloc += st.VCAlloc
			acc.VCOp += st.VCOp
		}
	}
	return out
}

// ComposeFilters is the prefilter order of the Section 5.2 table.
var ComposeFilters = []string{"NONE", "TL", "ERASER", "DJIT+", "FASTTRACK"}

// ComposeCheckers is the downstream-checker order of the Section 5.2
// table.
var ComposeCheckers = []string{"Atomizer", "Velodrome", "SingleTrack"}

// ComposeRow is one downstream checker's slowdowns under each prefilter.
// Forwarded is the deterministic counterpart of Slowdowns: the number of
// events that reached the checker, summed over the workloads — the work
// a prefilter saves, free of timer noise.
type ComposeRow struct {
	Checker   string
	Slowdowns map[string]float64 // by filter name
	Warnings  map[string]int
	Forwarded map[string]int64
}

// forwardCounter counts the events delivered to the wrapped checker.
type forwardCounter struct {
	rr.Tool
	n int64
}

func (c *forwardCounter) HandleEvent(i int, e trace.Event) {
	c.n++
	c.Tool.HandleEvent(i, e)
}

// composeFilterTools maps the compose table's prefilter labels to
// canonical tool names.
var composeFilterTools = map[string]string{
	"TL": "TL", "ERASER": "Eraser", "DJIT+": "DJIT+", "FASTTRACK": "FastTrack",
}

// Compose reproduces the Section 5.2 composition table: the average
// slowdown of each heavyweight checker over the compute-bound benchmarks
// under each prefilter. Footnote 7 of the paper applies: Atomizer already
// embeds Eraser, so the ERASER prefilter cell is reported but not
// meaningful for it.
func Compose(cfg Config) []ComposeRow {
	type work struct {
		tr      trace.Trace
		base    time.Duration
		threads int
	}
	var works []work
	for _, b := range sim.Benchmarks() {
		if !b.ComputeBound {
			continue
		}
		tr := b.Trace(cfg.Scale)
		works = append(works, work{tr: tr, base: BaseTime(tr, cfg.runs()), threads: b.Threads})
	}
	var rows []ComposeRow
	for _, checker := range ComposeCheckers {
		row := ComposeRow{
			Checker:   checker,
			Slowdowns: map[string]float64{},
			Warnings:  map[string]int{},
			Forwarded: map[string]int64{},
		}
		for _, filter := range ComposeFilters {
			var slow float64
			warnings := 0
			var forwarded int64
			for _, w := range works {
				// Every run replays the same trace, so the last run's
				// count is the count.
				var back *forwardCounter
				mk := func() rr.Tool {
					back = &forwardCounter{Tool: maker(checker, w.threads)()}
					if filter == "NONE" {
						return back
					}
					pre := maker(composeFilterTools[filter], w.threads)().(rr.Prefilter)
					return &rr.Pipeline{Pre: pre, Back: back}
				}
				m := MeasureTool(w.tr, mk, cfg, w.base)
				slow += m.Slowdown
				warnings += m.Warnings
				forwarded += back.n
			}
			row.Slowdowns[filter] = slow / float64(len(works))
			row.Warnings[filter] = warnings
			row.Forwarded[filter] = forwarded
		}
		rows = append(rows, row)
	}
	return rows
}

// EclipseTools is the tool order of the Section 5.3 table.
var EclipseTools = []string{"Empty", "Eraser", "DJIT+", "FastTrack"}

// Eclipse reproduces the Section 5.3 experiment over the five
// Eclipse-operation workloads.
func Eclipse(cfg Config) []BenchRow {
	var rows []BenchRow
	for _, b := range sim.EclipseOps() {
		rows = append(rows, runRow(b, EclipseTools, cfg))
	}
	return rows
}
