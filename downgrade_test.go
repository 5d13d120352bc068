package fasttrack

import (
	"testing"

	"fasttrack/trace"
)

// hostileTool panics in every method, including the accessors — the
// worst-behaved detector the pipeline must survive.
type hostileTool struct{}

func (hostileTool) Name() string                 { panic("hostile Name") }
func (hostileTool) HandleEvent(int, trace.Event) { panic("hostile HandleEvent") }
func (hostileTool) Races() []Report              { panic("hostile Races") }
func (hostileTool) Stats() Stats                 { panic("hostile Stats") }

// TestMonitorQueriesSurviveToolDowngrade: after the panic budget is
// spent and the tool is downgraded, the Monitor's queries must route
// through the downgrade wrapper (whose recover guards absorb the
// hostile accessors) rather than the original tool. Reading the tool
// directly used to panic right through Races and Stats.
func TestMonitorQueriesSurviveToolDowngrade(t *testing.T) {
	m := NewMonitor(WithTool(hostileTool{}))
	for i := 0; i < 32; i++ {
		m.Write(0, uint64(i)) // each delivery panics; quarantine absorbs them
	}

	h := m.Health()
	if !h.ToolDisabled {
		t.Fatalf("tool not downgraded after %d panics", h.Panics)
	}

	// None of these may panic, and the event path must stay open.
	if races := m.Races(); len(races) != 0 {
		t.Errorf("Races() after downgrade = %v", races)
	}
	_ = m.Stats()
	if m.Health().Panics == 0 {
		t.Error("Health() after downgrade lost the panic accounting")
	}
	m.Write(0, 999)
	m.Acquire(0, 1)
	m.Release(0, 1)
	if snap := m.Metrics(); snap.Counter("rr.quarantine.panics") == 0 {
		t.Error("Metrics() after downgrade lost the panic counter")
	}
}
