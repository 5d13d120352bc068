package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSpeedShape checks the raw-speed table's structure at unit-test
// scale: every workload timed against the in-run DJIT+ reference, with
// both precise detectors reporting the same races. The geomean gate is
// asserted on the full-scale artifact in CI, not here: at 0.1x the
// working sets collapse into cache and the ratio measures only shared
// dispatch overhead.
func TestSpeedShape(t *testing.T) {
	rep := Speed(Config{Scale: 0.1, Runs: 1})
	if rep.Schema != Schema || rep.Table != "speed" {
		t.Errorf("envelope = %q/%q, want %q/speed", rep.Schema, rep.Table, Schema)
	}
	want := []string{"same-epoch", "sweep", "read-shared", "first-touch", "mixed"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(want))
	}
	for i, r := range rep.Rows {
		if r.Workload != want[i] {
			t.Errorf("row %d: workload %q, want %q", i, r.Workload, want[i])
		}
		if r.Events <= 0 {
			t.Errorf("%s: no events", r.Workload)
		}
		if r.DJITNsPerEvent <= 0 || r.NsPerEvent <= 0 {
			t.Errorf("%s: non-positive timing (DJIT+ %.2f, FastTrack %.2f)",
				r.Workload, r.DJITNsPerEvent, r.NsPerEvent)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s: non-positive speedup %.2f", r.Workload, r.Speedup)
		}
		if r.Races != r.DJITRaces {
			t.Errorf("%s: FastTrack %d races, DJIT+ %d", r.Workload, r.Races, r.DJITRaces)
		}
	}
	if rep.GeomeanSpeedup <= 0 {
		t.Errorf("non-positive geomean %.2f", rep.GeomeanSpeedup)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back SpeedReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if back.GeomeanSpeedup != rep.GeomeanSpeedup || len(back.Rows) != len(rep.Rows) || back.Header != rep.Header {
		t.Error("artifact round-trip lost fields")
	}

	var tbl strings.Builder
	FprintSpeed(&tbl, rep)
	for _, w := range want {
		if !strings.Contains(tbl.String(), w) {
			t.Errorf("rendered table missing workload %q", w)
		}
	}
}
