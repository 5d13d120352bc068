package fasttrack

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fasttrack/internal/chaos"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// replayProv feeds tr through a fresh FastTrack monitor and returns the
// plain and detailed race snapshots.
func replayProv(tr trace.Trace, provenance bool) ([]Report, []DetailedReport) {
	m := NewMonitor(WithHints(Hints{Provenance: provenance}))
	for _, e := range tr {
		m.Ingest(e)
	}
	return m.Races(), m.DetailedRaces()
}

// assertProvenanceEquivalent is the enrichment soundness property: the
// flight recorder must never change which races are reported — enabling
// it yields the identical Report sequence (not just set) as a plain
// run — and every enriched report must describe the race its embedded
// Report names.
func assertProvenanceEquivalent(t *testing.T, label string, tr trace.Trace) {
	t.Helper()
	plainRaces, plainDetails := replayProv(tr, false)
	provRaces, provDetails := replayProv(tr, true)

	// Provenance-off runs keep plain reports: no recorder, PrevIndex
	// stays -1 (detailed reports are off by default).
	for _, d := range plainDetails {
		if d.Explanation != "" || len(d.AccessClock) != 0 {
			t.Errorf("%s: recorder off but report enriched: %+v", label, d)
		}
	}

	if len(provRaces) != len(plainRaces) {
		t.Fatalf("%s: provenance changed the race count: %d with, %d without",
			label, len(provRaces), len(plainRaces))
	}
	for i := range plainRaces {
		p, q := plainRaces[i], provRaces[i]
		// The recorder implies detailed reports, which fill PrevIndex;
		// everything else must match field for field.
		q.PrevIndex = p.PrevIndex
		if p != q {
			t.Errorf("%s: race %d diverges\n plain: %+v\n prov:  %+v", label, i, p, q)
		}
	}

	if len(provDetails) != len(provRaces) {
		t.Fatalf("%s: %d detailed reports for %d races", label, len(provDetails), len(provRaces))
	}
	for i, d := range provDetails {
		if d.Report != provRaces[i] {
			t.Errorf("%s: detail %d embeds %+v, want %+v", label, i, d.Report, provRaces[i])
		}
		if d.Explanation == "" || d.FailedCheck == "" || len(d.AccessClock) == 0 {
			t.Errorf("%s: detail %d missing evidence: %+v", label, i, d)
		}
		want := fmt.Sprintf("on x%d", d.Var)
		if !strings.Contains(d.Explanation, want) {
			t.Errorf("%s: detail %d explanation does not name its variable: %q", label, i, d.Explanation)
		}
	}
}

// TestProvenanceEquivalenceSim: paper-shaped benchmark workloads and
// random feasible traces.
func TestProvenanceEquivalenceSim(t *testing.T) {
	for _, b := range sim.Benchmarks()[:4] {
		assertProvenanceEquivalent(t, b.Name, b.Trace(0.05))
	}
	cfg := sim.DefaultRandomConfig()
	cfg.Events = 600
	cfg.Vars = 12
	for seed := int64(1); seed <= 6; seed++ {
		tr := sim.RandomTrace(rand.New(rand.NewSource(seed)), cfg)
		assertProvenanceEquivalent(t, fmt.Sprintf("random/seed=%d", seed), tr)
	}
}

// TestProvenanceEquivalenceChaos: the property must also hold on
// corrupted streams, where the dispatcher repairs or intercepts
// malformed events before they reach the detector.
func TestProvenanceEquivalenceChaos(t *testing.T) {
	base := sim.RandomTrace(rand.New(rand.NewSource(7)), sim.DefaultRandomConfig())
	for _, mode := range chaos.Modes() {
		raw := chaos.Mutate(base, mode, rand.New(rand.NewSource(3)))
		var tr trace.Trace
		sc := trace.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			tr = append(tr, sc.Event())
		}
		if len(tr) == 0 {
			continue
		}
		assertProvenanceEquivalent(t, "chaos/"+mode.String(), tr)
	}
}

// TestProvenanceSurvivesClose: the detailed snapshot outlives Close,
// like races and stats do.
func TestProvenanceSurvivesClose(t *testing.T) {
	m := NewMonitor(WithHints(Hints{Provenance: true}))
	m.Fork(0, 1)
	m.Write(0, 3)
	m.Write(1, 3)
	live := m.DetailedRaces()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	final := m.DetailedRaces()
	if len(live) != 1 || len(final) != 1 {
		t.Fatalf("detailed counts: live %d, final %d, want 1", len(live), len(final))
	}
	if live[0].Explanation == "" || live[0].Explanation != final[0].Explanation {
		t.Errorf("snapshot diverges across Close:\n live:  %q\n final: %q",
			live[0].Explanation, final[0].Explanation)
	}
}
