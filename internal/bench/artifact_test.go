package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Synthetic reports that pass every gate; each takes a mutation that
// breaks exactly one condition (nil keeps it valid).

func hdr(table string) Header { return Header{Schema: Schema, Table: table, CPUs: 2, Runs: 3} }

func pctOf(p float64) *float64 { return &p }

func opsRep(mut func(*OpsReport)) Report {
	r := OpsReport{Header: hdr("ops"), Scale: 1}
	for i := 0; i < 16; i++ {
		r.Rows = append(r.Rows, OpsBench{Bench: fmt.Sprint("b", i), Threads: 2, Events: 100, Tools: []OpsTool{
			{Tool: "Empty", NsPerEvent: 1},
			{Tool: "FastTrack", NsPerEvent: 20, FastPathPct: pctOf(100)},
		}})
	}
	if mut != nil {
		mut(&r)
	}
	return r
}

func batchRep(mut func(*BatchReport)) Report {
	r := BatchReport{Header: hdr("batch"), Events: 1000}
	for _, b := range []int{0, 1, 8, 64, 512, 4096} {
		r.Rows = append(r.Rows, BatchRow{Batch: b, ElapsedNs: 100, EventsPerSec: 1e7, Speedup: 1.0})
	}
	if mut != nil {
		mut(&r)
	}
	return r
}

func provenanceRep(mut func(*ProvenanceReport)) Report {
	r := ProvenanceReport{Header: hdr("provenance")}
	for _, w := range []string{"epoch-heavy", "sync-heavy", "shared-heavy"} {
		r.Rows = append(r.Rows, ProvenanceRow{Workload: w, Events: 1000, BaseNs: 100, BaseEventsPerSec: 1e7,
			ProvNs: 200, ProvEventsPerSec: 5e6, Overhead: 2.0})
	}
	if mut != nil {
		mut(&r)
	}
	return r
}

func speedRep(mut func(*SpeedReport)) Report {
	r := SpeedReport{Header: hdr("speed"), GeomeanSpeedup: speedGate}
	for _, w := range []string{"same-epoch", "sweep", "read-shared", "first-touch", "mixed"} {
		r.Rows = append(r.Rows, SpeedRow{Workload: w, Events: 1000, DJITNsPerEvent: 60, NsPerEvent: 20, Speedup: 3, Races: 1, DJITRaces: 1})
	}
	if mut != nil {
		mut(&r)
	}
	return r
}

// TestChecks runs every table's gates on a passing synthetic report and
// on one failing report per condition, and requires the failure to name
// the broken condition.
func TestChecks(t *testing.T) {
	type checkCase struct {
		name string
		rep  Report
		want string // substring of the Check error; "" means it passes
	}
	cases := []checkCase{
		{"ops/valid", opsRep(nil), ""},
		{"ops/15 benchmarks", opsRep(func(r *OpsReport) { r.Rows = r.Rows[:15] }), "15 benchmarks, want >= 16"},
		{"ops/no events", opsRep(func(r *OpsReport) { r.Rows[3].Events = 0 }), "b3: no events"},
		{"ops/no FastTrack", opsRep(func(r *OpsReport) { r.Rows[4].Tools = r.Rows[4].Tools[:1] }), "b4: no FastTrack cell"},
		{"ops/zero cost", opsRep(func(r *OpsReport) { r.Rows[5].Tools[1].NsPerEvent = 0 }), "b5: FastTrack nsPerEvent"},
		{"ops/no fast path", opsRep(func(r *OpsReport) { r.Rows[6].Tools[1].FastPathPct = nil }), "b6: FastTrack fastPathPct -"},
		{"ops/fast path 50", opsRep(func(r *OpsReport) { r.Rows[7].Tools[1].FastPathPct = pctOf(50) }), "b7: FastTrack fastPathPct 50.0"},
		{"ops/fast path over 100", opsRep(func(r *OpsReport) { r.Rows[8].Tools[1].FastPathPct = pctOf(100.1) }), "b8: FastTrack fastPathPct 100.1"},

		{"batch/valid", batchRep(nil), ""},
		{"batch/no events", batchRep(func(r *BatchReport) { r.Events = 0 }), "no events"},
		{"batch/missing row", batchRep(func(r *BatchReport) { r.Rows = r.Rows[:5] }), "no batch-4096 row"},
		{"batch/zero elapsed", batchRep(func(r *BatchReport) { r.Rows[1].ElapsedNs = 0 }), "batch 1: non-positive timing"},
		{"batch/zero rate", batchRep(func(r *BatchReport) { r.Rows[2].EventsPerSec = 0 }), "batch 8: non-positive timing"},
		{"batch/batch-64 at 0.99x", batchRep(func(r *BatchReport) { r.Rows[3].Speedup = 0.99 }), "batch 64 speedup 0.99x"},

		{"provenance/valid", provenanceRep(nil), ""},
		{"provenance/missing mix", provenanceRep(func(r *ProvenanceReport) { r.Rows = r.Rows[:2] }), "no shared-heavy row"},
		{"provenance/no events", provenanceRep(func(r *ProvenanceReport) { r.Rows[0].Events = 0 }), "epoch-heavy: non-positive"},
		{"provenance/zero base", provenanceRep(func(r *ProvenanceReport) { r.Rows[1].BaseNs = 0 }), "sync-heavy: non-positive"},
		{"provenance/zero prov", provenanceRep(func(r *ProvenanceReport) { r.Rows[2].ProvNs = 0 }), "shared-heavy: non-positive"},
		{"provenance/zero overhead", provenanceRep(func(r *ProvenanceReport) { r.Rows[0].Overhead = 0 }), "epoch-heavy: non-positive"},
		{"provenance/overhead 2.01", provenanceRep(func(r *ProvenanceReport) { r.Rows[1].Overhead = 2.01 }), "sync-heavy: overhead 2.01x"},

		{"speed/valid", speedRep(nil), ""},
		{"speed/missing workload", speedRep(func(r *SpeedReport) { r.Rows = r.Rows[:4] }), "no mixed row"},
		{"speed/no events", speedRep(func(r *SpeedReport) { r.Rows[0].Events = 0 }), "same-epoch: non-positive"},
		{"speed/zero DJIT+ time", speedRep(func(r *SpeedReport) { r.Rows[1].DJITNsPerEvent = 0 }), "sweep: non-positive"},
		{"speed/zero FastTrack time", speedRep(func(r *SpeedReport) { r.Rows[2].NsPerEvent = 0 }), "read-shared: non-positive"},
		{"speed/race counts differ", speedRep(func(r *SpeedReport) { r.Rows[3].DJITRaces = 2 }), "first-touch: FastTrack reports 1 races, DJIT+ 2"},
		{"speed/geomean below gate", speedRep(func(r *SpeedReport) { r.GeomeanSpeedup = speedGate - 0.01 }), "geomean speedup"},
	}

	// The envelope gates, on every table.
	for _, b := range []struct {
		table string
		rep   func(func(*Header)) Report
	}{
		{"ops", func(m func(*Header)) Report { return opsRep(func(r *OpsReport) { m(&r.Header) }) }},
		{"batch", func(m func(*Header)) Report { return batchRep(func(r *BatchReport) { m(&r.Header) }) }},
		{"provenance", func(m func(*Header)) Report { return provenanceRep(func(r *ProvenanceReport) { m(&r.Header) }) }},
		{"speed", func(m func(*Header)) Report { return speedRep(func(r *SpeedReport) { m(&r.Header) }) }},
	} {
		cases = append(cases,
			checkCase{b.table + "/old schema", b.rep(func(h *Header) { h.Schema = "fasttrack/bench-" + b.table + "/v1" }), "schema"},
			checkCase{b.table + "/wrong table", b.rep(func(h *Header) { h.Table = "chan" }), `table "chan"`},
			checkCase{b.table + "/no cpus", b.rep(func(h *Header) { h.CPUs = 0 }), "cpus 0"},
			checkCase{b.table + "/no runs", b.rep(func(h *Header) { h.Runs = 0 }), "runs 0"},
		)
	}

	for _, c := range cases {
		err := c.rep.Check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Check failed on a passing report: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: Check passed, want a failure naming %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: Check error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestCommittedArtifacts loads every committed BENCH_*.json, decodes it
// strictly into its table's report and runs that table's gates.
func TestCommittedArtifacts(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var h Header
		if err := json.Unmarshal(data, &h); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		var rep Report
		switch h.Table {
		case "ops":
			rep = &OpsReport{}
		case "batch":
			rep = &BatchReport{}
		case "provenance":
			rep = &ProvenanceReport{}
		case "speed":
			rep = &SpeedReport{}
		default:
			t.Errorf("%s: unknown table %q (schema %q)", p, h.Table, h.Schema)
			continue
		}
		if base := filepath.Base(p); base != "BENCH_"+h.Table+".json" {
			t.Errorf("%s holds the %s table", base, h.Table)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rep); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if err := rep.Check(); err != nil {
			t.Errorf("%s: gates fail:\n%v", p, err)
		}
		seen[h.Table] = true
	}
	for _, table := range []string{"batch", "provenance", "speed"} {
		if !seen[table] {
			t.Errorf("no committed BENCH_%s.json in the %s envelope", table, Schema)
		}
	}
}
