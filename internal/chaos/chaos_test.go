package chaos_test

import (
	"math/rand"
	"testing"

	fasttrack "fasttrack"
	"fasttrack/internal/chaos"
	"fasttrack/internal/core"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// TestAllDetectorsSurviveChaos is the harness's main contract: every
// registered detector survives every corruption mode with full
// degradation accounting and no escaped panic (an escaped panic fails
// the test by crashing it), on random base traces from two seeds.
func TestAllDetectorsSurviveChaos(t *testing.T) {
	for _, baseSeed := range []int64{1, 42} {
		base := sim.RandomTrace(rand.New(rand.NewSource(baseSeed)), sim.DefaultRandomConfig())
		for _, name := range fasttrack.ToolNames() {
			for _, mode := range chaos.Modes() {
				for _, seed := range []int64{1, 2, 3} {
					tool, err := fasttrack.NewTool(name, fasttrack.Hints{})
					if err != nil {
						t.Fatalf("NewTool(%q): %v", name, err)
					}
					res := chaos.Run(tool, base, mode, seed, rr.PolicyRepair)
					if err := res.Check(); err != nil {
						t.Errorf("base seed %d: %v", baseSeed, err)
					}
				}
			}
		}
	}
}

// TestChaosPolicies runs one detector through every mode under each
// policy, checking the per-policy accounting shape.
func TestChaosPolicies(t *testing.T) {
	base := sim.RandomTrace(rand.New(rand.NewSource(7)), sim.DefaultRandomConfig())
	for _, policy := range []rr.Policy{rr.PolicyStrict, rr.PolicyRepair, rr.PolicyDrop} {
		for _, mode := range chaos.Modes() {
			res := chaos.Run(core.New(0, 0), base, mode, 11, policy)
			if err := res.Check(); err != nil {
				t.Error(err)
			}
			h := res.Health
			switch policy {
			case rr.PolicyStrict:
				if h.Repaired != 0 || h.Dropped != 0 {
					t.Errorf("%s/strict: repaired=%d dropped=%d, want 0", mode, h.Repaired, h.Dropped)
				}
			case rr.PolicyRepair:
				if h.Err != nil {
					t.Errorf("%s/repair: unexpected strict error %v", mode, h.Err)
				}
			case rr.PolicyDrop:
				if h.Repaired != 0 || h.Err != nil {
					t.Errorf("%s/drop: repaired=%d err=%v, want 0/nil", mode, h.Repaired, h.Err)
				}
			}
		}
	}
}

// TestQuarantineContinuesDetection is the acceptance test for the panic
// quarantine: a detector that panics mid-stream on one location gets
// that location quarantined, and detection continues — a race planted
// AFTER the panic is still reported.
func TestQuarantineContinuesDetection(t *testing.T) {
	ft := core.New(0, 0)
	tool := &chaos.FaultyTool{
		Inner: ft,
		PanicIf: func(i int, e trace.Event) bool {
			return e.Kind.IsAccess() && e.Target == 5
		},
	}
	d := rr.NewDispatcher(tool)
	d.Feed(trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5), // panics; location 5 is quarantined
		trace.Wr(0, 9),
		trace.Wr(1, 9), // planted race, after the panic
	})
	h := d.Health()
	if h.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", h.Panics)
	}
	if h.QuarantinedLocations != 1 {
		t.Fatalf("QuarantinedLocations = %d, want 1", h.QuarantinedLocations)
	}
	if h.ToolDisabled {
		t.Fatal("tool disabled after a single panic")
	}
	races := tool.Races()
	if len(races) != 1 || races[0].Var != 9 || races[0].Kind != rr.WriteWrite {
		t.Fatalf("races after panic = %+v, want one write-write race on x9", races)
	}
	// The quarantined location is skipped from here on, counted as
	// quarantined accesses.
	d.Feed(trace.Trace{trace.Wr(1, 5)})
	if got := d.Health().QuarantinedAccesses; got != 1 {
		t.Fatalf("QuarantinedAccesses = %d, want 1", got)
	}
	if d.Health().Panics != 1 {
		t.Fatalf("quarantined access re-panicked: Panics = %d", d.Health().Panics)
	}
}

// TestToolDowngrade verifies that after DefaultMaxToolPanics panics on
// distinct locations the whole tool is downgraded to a no-op and the
// pipeline keeps running.
func TestToolDowngrade(t *testing.T) {
	tool := &chaos.FaultyTool{
		Inner:   core.New(0, 0),
		PanicIf: func(i int, e trace.Event) bool { return e.Kind.IsAccess() },
	}
	d := rr.NewDispatcher(tool)
	for x := uint64(0); x < rr.DefaultMaxToolPanics+2; x++ {
		d.Feed(trace.Trace{trace.Wr(0, x*rr.FieldsPerObject)}) // distinct shadow locations
	}
	h := d.Health()
	if !h.ToolDisabled {
		t.Fatalf("tool not disabled after %d panics", h.Panics)
	}
	if h.Panics != rr.DefaultMaxToolPanics {
		t.Fatalf("Panics = %d, want %d (downgrade should stop further deliveries)", h.Panics, rr.DefaultMaxToolPanics)
	}
	if h.Healthy {
		t.Fatal("Health reports healthy with a disabled tool")
	}
	// The downgraded pipeline still accepts events and queries.
	d.Feed(trace.Trace{trace.Wr(1, 99)})
	if got := d.Tool.Races(); got == nil && len(got) != 0 {
		t.Fatalf("Races() on downgraded tool = %v", got)
	}
	_ = d.Tool.Stats()
	if name := d.Tool.Name(); name == "" {
		t.Fatal("downgraded tool has empty name")
	}
}

// TestMutateDeterministic checks that Mutate is a pure function of the
// rng stream, so failures reproduce from (mode, seed).
func TestMutateDeterministic(t *testing.T) {
	base := sim.RandomTrace(rand.New(rand.NewSource(3)), sim.DefaultRandomConfig())
	for _, mode := range chaos.Modes() {
		a := chaos.Mutate(base, mode, rand.New(rand.NewSource(5)))
		b := chaos.Mutate(base, mode, rand.New(rand.NewSource(5)))
		if string(a) != string(b) {
			t.Errorf("%s: Mutate not deterministic for a fixed seed", mode)
		}
	}
}
