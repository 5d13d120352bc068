package sim_test

import (
	"reflect"
	"testing"

	"fasttrack"
	"fasttrack/internal/sim"
)

func serialRaces(t *testing.T, p sim.ChanProfile) int {
	t.Helper()
	tr := p.Generate(1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: infeasible trace: %v", p.Name, err)
	}
	tool, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	return len(fasttrack.Replay(tr, tool, fasttrack.Fine))
}

// monitorRaces feeds the workload through a live Monitor in one
// IngestBatch call, the path the racedetectd service uses per frame.
func monitorRaces(t *testing.T, p sim.ChanProfile) int {
	t.Helper()
	tr := p.Generate(1)
	m := fasttrack.NewMonitor()
	if _, err := m.IngestBatch(tr); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return len(m.Races())
}

// TestChanWorkloadSeededRaces is the acceptance property for the
// capacity-aware rules on the generated workload: they report exactly
// the seeded buffered-slack races on the buffered mix and none on the
// unbuffered-only workload — on a plain replay and through a batching
// Monitor alike.
func TestChanWorkloadSeededRaces(t *testing.T) {
	buffered := sim.ChanMix()
	unbuffered := sim.ChanProfile{Name: "handoff-only", Pairs: 2, Handoffs: 50}

	for _, run := range []struct {
		name  string
		races func(*testing.T, sim.ChanProfile) int
	}{
		{"serial", serialRaces},
		{"monitor", monitorRaces},
	} {
		t.Run(run.name, func(t *testing.T) {
			if got, want := run.races(t, buffered), buffered.KnownRaces(); got != want {
				t.Errorf("buffered mix: %d races, want the %d seeded", got, want)
			}
			if got := run.races(t, unbuffered); got != 0 {
				t.Errorf("unbuffered workload: %d races, want 0", got)
			}
		})
	}
}

// TestChanWorkloadDeterministic pins that the generator is a pure
// function of its inputs (tracegen depends on it).
func TestChanWorkloadDeterministic(t *testing.T) {
	p := sim.ChanMix()
	if !reflect.DeepEqual(p.Generate(1), p.Generate(1)) {
		t.Fatal("Generate not deterministic in its inputs")
	}
}
