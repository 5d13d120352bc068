package bench

import (
	"bytes"
	"strings"
	"testing"

	"fasttrack/internal/sim"
)

// testCfg keeps unit-test runs fast; the real harness uses Scale 1.
var testCfg = Config{Scale: 0.2, Runs: 1}

// TestTable1WarningStructure is the heart of the Table 1 reproduction:
// on every benchmark the precise tools report exactly the seeded races
// and agree with each other; Eraser reports its characteristic spurious
// warnings; MultiRace and Goldilocks miss the initialization races.
func TestTable1WarningStructure(t *testing.T) {
	rows := Table1(testCfg)
	if len(rows) != 16 {
		t.Fatalf("%d rows, want 16", len(rows))
	}

	eraserWant := map[string]int{
		"colt": 3, "crypt": 0, "lufact": 4, "moldyn": 0, "montecarlo": 0,
		"mtrt": 1, "raja": 0, "raytracer": 1, "sparse": 0, "series": 1,
		"sor": 3, "tsp": 9, "elevator": 0, "philo": 0, "hedc": 2, "jbb": 3,
	}
	goldWant := map[string]int{
		"mtrt": 1, "raytracer": 1, "tsp": 1, "jbb": 2, // recurring only
	}

	for _, r := range rows {
		ft := r.Cells["FastTrack"].Warnings
		if ft != r.KnownRaces {
			t.Errorf("%s: FastTrack reported %d races, seeded %d", r.Bench, ft, r.KnownRaces)
		}
		for _, precise := range []string{"DJIT+", "BasicVC"} {
			if got := r.Cells[precise].Warnings; got != ft {
				t.Errorf("%s: %s reported %d, FastTrack %d — precise tools must agree",
					r.Bench, precise, got, ft)
			}
		}
		if got := r.Cells["Eraser"].Warnings; got != eraserWant[r.Bench] {
			t.Errorf("%s: Eraser reported %d warnings, want %d", r.Bench, got, eraserWant[r.Bench])
		}
		if got := r.Cells["Goldilocks"].Warnings; got != goldWant[r.Bench] {
			t.Errorf("%s: Goldilocks reported %d warnings, want %d", r.Bench, got, goldWant[r.Bench])
		}
		if got := r.Cells["MultiRace"].Warnings; got > ft {
			t.Errorf("%s: MultiRace reported %d > FastTrack's %d (must never exceed precise)",
				r.Bench, got, ft)
		}
		if got := r.Cells["Empty"].Warnings; got != 0 {
			t.Errorf("%s: Empty reported %d warnings", r.Bench, got)
		}
	}

	// Aggregate: Eraser reports many more warnings than the 8 real races.
	eraserTotal, preciseTotal := 0, 0
	for _, r := range rows {
		eraserTotal += r.Cells["Eraser"].Warnings
		preciseTotal += r.Cells["FastTrack"].Warnings
	}
	if preciseTotal != 8 {
		t.Errorf("FastTrack total = %d, want 8", preciseTotal)
	}
	if eraserTotal <= preciseTotal {
		t.Errorf("Eraser total %d not above precise total %d", eraserTotal, preciseTotal)
	}
}

// TestTable2Shape: FastTrack allocates and operates on vastly fewer
// vector clocks than DJIT+ (the paper reports 155x fewer allocations and
// 72x fewer operations overall).
func TestTable2Shape(t *testing.T) {
	rows := Table2(testCfg)
	var djAlloc, ftAlloc, djOps, ftOps int64
	for _, r := range rows {
		djAlloc += r.DJITAlloc
		ftAlloc += r.FTAlloc
		djOps += r.DJITOps
		ftOps += r.FTOps
		if r.FTAlloc > r.DJITAlloc {
			t.Errorf("%s: FastTrack allocated more VCs (%d) than DJIT+ (%d)",
				r.Bench, r.FTAlloc, r.DJITAlloc)
		}
	}
	if ftAlloc*10 > djAlloc {
		t.Errorf("FastTrack allocations (%d) not an order of magnitude below DJIT+ (%d)",
			ftAlloc, djAlloc)
	}
	if ftOps*10 > djOps {
		t.Errorf("FastTrack VC ops (%d) not an order of magnitude below DJIT+ (%d)",
			ftOps, djOps)
	}
}

// TestTable3Shape: FastTrack's fine-grain shadow memory is below DJIT+'s
// on every benchmark and roughly half on the array-heavy ones; coarse
// granularity reduces both.
func TestTable3Shape(t *testing.T) {
	rows := Table3(testCfg)
	for _, r := range rows {
		if r.MemFine["FastTrack"] > r.MemFine["DJIT+"] {
			t.Errorf("%s: FastTrack fine memory %.2fx above DJIT+ %.2fx",
				r.Bench, r.MemFine["FastTrack"], r.MemFine["DJIT+"])
		}
		if r.MemCoarse["DJIT+"] > r.MemFine["DJIT+"] {
			t.Errorf("%s: DJIT+ coarse memory %.2fx above fine %.2fx",
				r.Bench, r.MemCoarse["DJIT+"], r.MemFine["DJIT+"])
		}
		if r.MemCoarse["FastTrack"] > r.MemFine["FastTrack"] {
			t.Errorf("%s: FastTrack coarse memory %.2fx above fine %.2fx",
				r.Bench, r.MemCoarse["FastTrack"], r.MemFine["FastTrack"])
		}
	}
}

// TestRuleFrequenciesShape: the fast paths dominate (Figure 2's
// percentages: the three constant-time read rules cover 99.9% of reads,
// and the VC-allocating READ SHARE path is rare).
func TestRuleFrequenciesShape(t *testing.T) {
	// Full scale: the slow-path fractions shrink as the loop counts grow,
	// so the default workload size is the representative one.
	stats := RuleFrequencies(Config{Scale: 1, Runs: 1})
	var ft RuleStats
	found := false
	for _, s := range stats {
		if s.Tool == "FastTrack" {
			ft = s
			found = true
		}
	}
	if !found {
		t.Fatal("no FastTrack row")
	}
	reads, writes, syncs := ft.OperationMix()
	if reads < 50 || writes > 40 || syncs > 15 {
		t.Errorf("operation mix reads %.1f%% writes %.1f%% syncs %.1f%% far from paper shape",
			reads, writes, syncs)
	}
	same, shared, excl, share := ft.ReadRulePcts()
	if got := same + shared + excl + share; got < 99.9 || got > 100.1 {
		t.Errorf("read rules sum to %.2f%%", got)
	}
	if share > 1.0 {
		t.Errorf("READ SHARE slow path at %.2f%% of reads; paper: 0.1%%", share)
	}
	if same < 30 {
		t.Errorf("READ SAME EPOCH at %.1f%%; expected the dominant rule", same)
	}
	wsame, wexcl, wshared := ft.WriteRulePcts()
	if got := wsame + wexcl + wshared; got < 99.9 || got > 100.1 {
		t.Errorf("write rules sum to %.2f%%", got)
	}
	if wshared > 1.0 {
		t.Errorf("WRITE SHARED slow path at %.2f%% of writes; paper: 0.1%%", wshared)
	}
}

// TestComposeShape: the Section 5.2 ordering, asserted on the events
// each prefilter forwards to the checker (deterministic) rather than on
// wall-clock slowdowns (which stay in the racebench output): FASTTRACK
// forwards strictly fewer events than NONE and no more than any other
// prefilter. The counts depend only on the prefilter, so the ordering
// holds for every checker, Atomizer included.
func TestComposeShape(t *testing.T) {
	cfg := Config{Scale: 0.3, Runs: 1}
	rows := Compose(cfg)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		none := r.Forwarded["NONE"]
		ft := r.Forwarded["FASTTRACK"]
		if ft >= none {
			t.Errorf("%s: FASTTRACK prefilter forwarded %d events, NONE %d: want strictly fewer",
				r.Checker, ft, none)
		}
		for _, f := range []string{"TL", "ERASER", "DJIT+"} {
			if ft > r.Forwarded[f] {
				t.Errorf("%s: FASTTRACK prefilter forwarded %d events, more than %s (%d)",
					r.Checker, ft, f, r.Forwarded[f])
			}
		}
		t.Logf("%s forwarded: %v", r.Checker, r.Forwarded)
	}
}

// TestEclipseShape: FastTrack reports the ~30 seeded races; Eraser
// reports an order of magnitude more warnings (the paper: 30 vs 960).
func TestEclipseShape(t *testing.T) {
	rows := Eclipse(testCfg)
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	ftTotal, eraserTotal, seeded := 0, 0, 0
	for _, r := range rows {
		ftTotal += r.Cells["FastTrack"].Warnings
		eraserTotal += r.Cells["Eraser"].Warnings
		seeded += r.KnownRaces
	}
	if ftTotal != seeded {
		t.Errorf("FastTrack total %d != seeded %d", ftTotal, seeded)
	}
	if ftTotal != 30 {
		t.Errorf("FastTrack total %d, want 30", ftTotal)
	}
	if eraserTotal < 900 || eraserTotal > 1100 {
		t.Errorf("Eraser total %d, want ~960", eraserTotal)
	}
}

// TestFormatters smoke-tests every printer.
func TestFormatters(t *testing.T) {
	var buf bytes.Buffer
	rows := Table1(Config{Scale: 0.05, Runs: 1})
	FprintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "FastTrack") || !strings.Contains(buf.String(), "Average") {
		t.Error("Table 1 output incomplete")
	}
	buf.Reset()
	FprintTable2(&buf, Table2(Config{Scale: 0.05, Runs: 1}))
	if !strings.Contains(buf.String(), "Total") {
		t.Error("Table 2 output incomplete")
	}
	buf.Reset()
	FprintTable3(&buf, Table3(Config{Scale: 0.05, Runs: 1}))
	if !strings.Contains(buf.String(), "Memory overhead") {
		t.Error("Table 3 output incomplete")
	}
	buf.Reset()
	FprintRules(&buf, RuleFrequencies(Config{Scale: 0.05, Runs: 1}))
	if !strings.Contains(buf.String(), "SAME EPOCH") {
		t.Error("rules output incomplete")
	}
	buf.Reset()
	FprintCompose(&buf, Compose(Config{Scale: 0.03, Runs: 1}))
	if !strings.Contains(buf.String(), "Velodrome") {
		t.Error("compose output incomplete")
	}
	buf.Reset()
	FprintEclipse(&buf, Eclipse(Config{Scale: 0.05, Runs: 1}))
	if !strings.Contains(buf.String(), "Total warnings") {
		t.Error("eclipse output incomplete")
	}
}

// TestScalingShape: the ablation must show FastTrack's O(n) VC work and
// shadow memory growing far slower than the vector-clock detectors'.
// (Wall-clock ratios are too noisy to assert in a unit test; the
// counters are deterministic.)
func TestScalingShape(t *testing.T) {
	rows := Scaling(Config{Scale: 0.2, Runs: 1}, []int{2, 16})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.VCOps["FastTrack"]*5 > r.VCOps["DJIT+"] {
			t.Errorf("threads=%d: FastTrack VC ops %d not well below DJIT+ %d",
				r.Threads, r.VCOps["FastTrack"], r.VCOps["DJIT+"])
		}
		if r.ShadowKB["FastTrack"] > r.ShadowKB["DJIT+"] {
			t.Errorf("threads=%d: FastTrack shadow %dKB above DJIT+ %dKB",
				r.Threads, r.ShadowKB["FastTrack"], r.ShadowKB["DJIT+"])
		}
	}
	// DJIT+'s shadow memory grows superlinearly with threads (O(n) per
	// variable); FastTrack's stays near-constant per variable.
	djitGrowth := float64(rows[1].ShadowKB["DJIT+"]) / float64(rows[0].ShadowKB["DJIT+"])
	ftGrowth := float64(rows[1].ShadowKB["FastTrack"]) / float64(rows[0].ShadowKB["FastTrack"])
	if ftGrowth >= djitGrowth {
		t.Errorf("shadow growth: FastTrack %.1fx vs DJIT+ %.1fx — epochs must scale better",
			ftGrowth, djitGrowth)
	}
	var buf bytes.Buffer
	FprintScaling(&buf, rows)
	if !strings.Contains(buf.String(), "Threads") {
		t.Error("scaling output incomplete")
	}
}

// TestAccordionShape: on short-lived-thread waves, FastTrack's shadow
// memory is far below DJIT+'s, compaction reduces it further, every dead
// thread is reclaimed, and the race-free workload stays silent.
func TestAccordionShape(t *testing.T) {
	rows := Accordion(DefaultConfig(), [][2]int{{8, 8}, {32, 8}})
	for _, r := range rows {
		if r.Warnings != 0 {
			t.Errorf("waves=%d: %d warnings on race-free workload", r.Waves, r.Warnings)
		}
		if r.FTBytes >= r.DJITBytes {
			t.Errorf("waves=%d: FastTrack %dB not below DJIT+ %dB", r.Waves, r.FTBytes, r.DJITBytes)
		}
		if r.FTCompactBytes >= r.FTBytes {
			t.Errorf("waves=%d: compaction did not reduce memory (%d -> %d)",
				r.Waves, r.FTBytes, r.FTCompactBytes)
		}
		if r.Dropped != r.Waves*r.Workers {
			t.Errorf("waves=%d: dropped %d threads, want %d", r.Waves, r.Dropped, r.Waves*r.Workers)
		}
	}
	var buf bytes.Buffer
	FprintAccordion(&buf, rows)
	if !strings.Contains(buf.String(), "Reduction") {
		t.Error("accordion output incomplete")
	}
}

// TestBaseTimePositive guards the slowdown denominator.
func TestBaseTimePositive(t *testing.T) {
	b, _ := sim.ByName("raja")
	tr := b.Trace(0.1)
	if BaseTime(tr, 2) <= 0 {
		t.Error("BaseTime must be positive")
	}
}
