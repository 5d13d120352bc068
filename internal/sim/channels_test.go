package sim_test

import (
	"reflect"
	"testing"

	"fasttrack"
	"fasttrack/internal/sim"
)

func serialRaces(t *testing.T, p sim.ChanProfile, enc sim.ChanEncoding) int {
	t.Helper()
	tr := p.Generate(1, enc)
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s/%d: infeasible trace: %v", p.Name, enc, err)
	}
	tool, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	return len(fasttrack.Replay(tr, tool, fasttrack.Fine))
}

// monitorRaces feeds the workload through a live Monitor in one
// IngestBatch call, the path the racedetectd service uses per frame.
func monitorRaces(t *testing.T, p sim.ChanProfile, enc sim.ChanEncoding) int {
	t.Helper()
	tr := p.Generate(1, enc)
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
// capacity-aware rules on the generated workload: the native encoding
// reports exactly the seeded buffered-slack races, the conservative
// volatile encoding reports a subset (here: none) on buffered
// workloads, and on the unbuffered-only workload the two agree — on a
// plain replay and through a batching Monitor alike.
func TestChanWorkloadSeededRaces(t *testing.T) {
	buffered := sim.ChanMix()
	unbuffered := sim.ChanProfile{Name: "handoff-only", Pairs: 2, Handoffs: 50}

	for _, run := range []struct {
		name  string
		races func(*testing.T, sim.ChanProfile, sim.ChanEncoding) int
	}{
		{"serial", serialRaces},
		{"monitor", monitorRaces},
	} {
		t.Run(run.name, func(t *testing.T) {
			native := run.races(t, buffered, sim.ChanNative)
			conservative := run.races(t, buffered, sim.ChanVolatile)
			if want := buffered.KnownRaces(); native != want {
				t.Errorf("native races = %d, want the %d seeded", native, want)
			}
			if conservative != 0 {
				t.Errorf("volatile encoding races = %d, want 0 (over-ordering suppresses them)", conservative)
			}
			if native < conservative {
				t.Errorf("capacity-aware races (%d) not a superset of conservative (%d)", native, conservative)
			}

			un := run.races(t, unbuffered, sim.ChanNative)
			uv := run.races(t, unbuffered, sim.ChanVolatile)
			if un != 0 || uv != 0 {
				t.Errorf("unbuffered workload: native %d, volatile %d races, want 0 == 0", un, uv)
			}
		})
	}
}

// TestChanWorkloadDeterministic pins that the generator is a pure
// function of its inputs (tracegen and racebench depend on it).
func TestChanWorkloadDeterministic(t *testing.T) {
	p := sim.ChanMix()
	a := p.Generate(1, sim.ChanNative)
	b := p.Generate(1, sim.ChanNative)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate not deterministic in its inputs")
	}
	if v := p.Generate(1, sim.ChanVolatile); len(v) != len(a) {
		t.Fatalf("encodings differ in event count: native %d, volatile %d", len(a), len(v))
	}
}
