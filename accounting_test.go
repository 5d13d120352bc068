package fasttrack

import (
	"bytes"
	"math/rand"
	"testing"

	"fasttrack/internal/chaos"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// taxonomyComplete lists the detectors whose per-rule counters
// attribute every memory access to exactly one instrumentation rule, so
// the rule counts must sum back to the access totals.
var taxonomyComplete = map[string]bool{
	"FastTrack":       true,
	"DJIT+":           true,
	"BasicVC":         true,
	"WriteEpochsOnly": true,
	"MultiRace":       true,
}

// checkAccounting asserts the operation-accounting invariants between a
// tool's Stats and the dispatcher's ground-truth delivered counters:
// the tool counted exactly the reads, writes, and synchronization
// events the dispatcher actually handed to it, the per-kind sync
// counters sum to the sync total, and — for the taxonomy-complete
// detectors — the fast-path and slow-path rule counters sum exactly to
// the access totals.
func checkAccounting(t *testing.T, label string, d *rr.Dispatcher, st Stats) {
	t.Helper()
	if got, want := st.Reads, d.Delivered(trace.Read); got != want {
		t.Errorf("%s: tool counted %d reads, dispatcher delivered %d", label, got, want)
	}
	if got, want := st.Writes, d.Delivered(trace.Write); got != want {
		t.Errorf("%s: tool counted %d writes, dispatcher delivered %d", label, got, want)
	}
	if got, want := st.Syncs, d.DeliveredSyncs(); got != want {
		t.Errorf("%s: tool counted %d syncs, dispatcher delivered %d", label, got, want)
	}
	if got := st.SyncKindSum(); got != st.Syncs {
		t.Errorf("%s: per-kind sync counters sum to %d, Syncs = %d", label, got, st.Syncs)
	}
	if got, want := st.Markers, d.Delivered(trace.TxBegin)+d.Delivered(trace.TxEnd); got != want {
		t.Errorf("%s: tool counted %d markers, dispatcher delivered %d", label, got, want)
	}

	name := label
	if i := bytes.IndexByte([]byte(label), '/'); i >= 0 {
		name = label[:i]
	}
	if !taxonomyComplete[name] {
		return
	}
	readRules := st.ReadSameEpoch + st.ReadShared + st.ReadExclusive + st.ReadShare + st.ReadOwned
	if readRules != st.Reads {
		t.Errorf("%s: read rules sum to %d (sameEpoch=%d shared=%d exclusive=%d share=%d owned=%d), Reads = %d",
			label, readRules, st.ReadSameEpoch, st.ReadShared, st.ReadExclusive, st.ReadShare, st.ReadOwned, st.Reads)
	}
	writeRules := st.WriteSameEpoch + st.WriteExclusive + st.WriteShared + st.WriteOwned
	if writeRules != st.Writes {
		t.Errorf("%s: write rules sum to %d (sameEpoch=%d exclusive=%d shared=%d owned=%d), Writes = %d",
			label, writeRules, st.WriteSameEpoch, st.WriteExclusive, st.WriteShared, st.WriteOwned, st.Writes)
	}
}

// TestAccountingSim: over clean simulated workloads, every registered
// detector's counters must agree exactly with the dispatcher's
// delivered-event ground truth.
func TestAccountingSim(t *testing.T) {
	benchs := sim.Benchmarks()[:3]
	for _, b := range benchs {
		tr := b.Trace(0.1)
		for _, name := range ToolNames() {
			tool, err := NewTool(name, Hints{Threads: b.Threads})
			if err != nil {
				t.Fatalf("NewTool(%q): %v", name, err)
			}
			d := rr.NewDispatcher(tool)
			d.Feed(tr)
			if h := d.Health(); h.Panics != 0 {
				t.Fatalf("%s/%s: %d panics on a clean trace", name, b.Name, h.Panics)
			}
			checkAccounting(t, name+"/"+b.Name, d, tool.Stats())
		}
	}
}

// TestUnheldReleaseAccounting: under PolicyOff an unheld release never
// reaches the tool; the dispatcher records it as a dropped violation,
// so Violations == Repaired + Dropped holds as it does under every
// validating policy.
func TestUnheldReleaseAccounting(t *testing.T) {
	m := NewMonitor()
	m.Acquire(0, 5)
	m.Release(0, 5)
	m.Release(0, 5) // no matching acquire: intercepted, not forwarded
	m.Write(0, 1)

	h := m.Health()
	if h.Violations != 1 || h.Dropped != 1 || h.Repaired != 0 {
		t.Errorf("PolicyOff: violations=%d repaired=%d dropped=%d, want 1/0/1",
			h.Violations, h.Repaired, h.Dropped)
	}
	if h.Violations != h.Repaired+h.Dropped {
		t.Errorf("invariant broken: Violations=%d != Repaired+Dropped=%d",
			h.Violations, h.Repaired+h.Dropped)
	}
	if st := m.Stats(); st.Releases != 1 {
		t.Errorf("tool saw %d releases, want 1 (the held one)", st.Releases)
	}

	// Under a validating policy the validator repairs the malformed
	// release instead, so the dispatcher drops nothing.
	mv := NewMonitor(WithValidation(PolicyRepair))
	mv.Acquire(0, 5)
	mv.Release(0, 5)
	mv.Release(0, 5)
	hv := mv.Health()
	if hv.Violations != 1 || hv.Repaired != 1 || hv.Dropped != 0 {
		t.Errorf("PolicyRepair: violations=%d repaired=%d dropped=%d, want 1/1/0",
			hv.Violations, hv.Repaired, hv.Dropped)
	}
}

// TestAccountingChaos: the invariants must survive corrupted streams.
// Under PolicyRepair no registered detector panics (the chaos harness's
// own contract), so the delivered counters remain an exact ground
// truth even while the validator is repairing the stream.
func TestAccountingChaos(t *testing.T) {
	base := sim.RandomTrace(rand.New(rand.NewSource(42)), sim.DefaultRandomConfig())
	for _, name := range ToolNames() {
		for _, mode := range chaos.Modes() {
			raw := chaos.Mutate(base, mode, rand.New(rand.NewSource(9)))
			tool, err := NewTool(name, Hints{})
			if err != nil {
				t.Fatalf("NewTool(%q): %v", name, err)
			}
			d := rr.NewDispatcher(tool)
			d.Policy = PolicyRepair
			sc := trace.NewScanner(bytes.NewReader(raw))
			for sc.Scan() {
				d.EventBatch([]trace.Event{sc.Event()})
			}
			if h := d.Health(); h.Panics != 0 {
				t.Fatalf("%s/%s: %d panics under PolicyRepair", name, mode, h.Panics)
			}
			checkAccounting(t, name+"/"+mode.String(), d, tool.Stats())
		}
	}
}
