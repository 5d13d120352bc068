package rr

import (
	"errors"
	"testing"

	"fasttrack/trace"
)

// evEq compares events field-wise (Event holds a slice, so == is not
// available).
func evEq(a, b trace.Event) bool {
	if a.Kind != b.Kind || a.Tid != b.Tid || a.Target != b.Target || len(a.Tids) != len(b.Tids) {
		return false
	}
	for i := range a.Tids {
		if a.Tids[i] != b.Tids[i] {
			return false
		}
	}
	return true
}

// feedAll offers a trace to a fresh dispatcher over tool with the given
// policy and returns the dispatcher.
func feedAll(t *testing.T, tool Tool, p Policy, tr trace.Trace) *Dispatcher {
	t.Helper()
	d := NewDispatcher(tool)
	d.Policy = p
	d.Feed(tr)
	return d
}

func TestValidatorStrictStopsWithPosition(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyStrict, trace.Trace{
		trace.Wr(0, 1),
		trace.Rel(0, 7), // unheld release: first violation, index 1
		trace.Wr(0, 2),  // ignored after the error
	})
	err := d.Err()
	if err == nil {
		t.Fatal("PolicyStrict: no error for unheld release")
	}
	var verr *trace.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error type %T, want *trace.ValidationError", err)
	}
	if verr.Index != 1 {
		t.Errorf("error index = %d, want 1", verr.Index)
	}
	if len(rec.events) != 1 {
		t.Errorf("tool saw %d events after strict stop, want 1", len(rec.events))
	}
	h := d.Health()
	if h.Healthy || h.Violations != 1 || h.Err == nil {
		t.Errorf("Health = %+v, want 1 violation with Err set", h)
	}
}

func TestValidatorRepairsUnheldRelease(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyRepair, trace.Trace{
		trace.Rel(0, 7), // repaired: acq(0,7) synthesized before it
		trace.Wr(0, 1),
	})
	h := d.Health()
	if h.Violations != 1 || h.Repaired != 1 || h.Synthesized != 1 {
		t.Fatalf("Health = %+v, want 1 violation / 1 repaired / 1 synthesized", h)
	}
	want := trace.Trace{trace.Acq(0, 7), trace.Rel(0, 7), trace.Wr(0, 1)}
	if len(rec.events) != len(want) {
		t.Fatalf("tool saw %v, want %v", rec.events, want)
	}
	for i, e := range want {
		if !evEq(rec.events[i], e) {
			t.Errorf("event %d = %v, want %v", i, rec.events[i], e)
		}
	}
	if d.UnheldReleases != 0 {
		t.Errorf("UnheldReleases = %d after repair, want 0", d.UnheldReleases)
	}
}

func TestValidatorRepairsUnknownThread(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyRepair, trace.Trace{
		trace.Wr(3, 1), // thread 3 was never forked
	})
	h := d.Health()
	if h.Repaired != 1 || h.Synthesized != 1 {
		t.Fatalf("Health = %+v, want repair with one synthesized fork", h)
	}
	want := trace.Trace{trace.ForkOf(0, 3), trace.Wr(3, 1)}
	if len(rec.events) != 2 || !evEq(rec.events[0], want[0]) || !evEq(rec.events[1], want[1]) {
		t.Fatalf("tool saw %v, want %v", rec.events, want)
	}
}

func TestValidatorRepairsDeadThread(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyRepair, trace.Trace{
		trace.ForkOf(0, 1),
		trace.JoinOf(0, 1),
		trace.Wr(1, 5), // thread 1 already joined; re-forked by repair
	})
	if h := d.Health(); h.Repaired != 1 {
		t.Fatalf("Health = %+v, want 1 repair", h)
	}
	last := rec.events[len(rec.events)-1]
	prev := rec.events[len(rec.events)-2]
	if !evEq(last, trace.Wr(1, 5)) || !evEq(prev, trace.ForkOf(0, 1)) {
		t.Fatalf("tail events = %v, %v; want re-fork then write", prev, last)
	}
}

func TestValidatorDropPolicy(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyDrop, trace.Trace{
		trace.Rel(0, 7),     // dropped
		trace.Wr(9, 1),      // dropped (unknown thread)
		trace.JoinOf(0, 42), // dropped (join of never-forked thread)
		trace.Wr(0, 2),      // fine
	})
	h := d.Health()
	if h.Violations != 3 || h.Dropped != 3 || h.Repaired != 0 {
		t.Fatalf("Health = %+v, want 3 violations all dropped", h)
	}
	if len(rec.events) != 1 || !evEq(rec.events[0], trace.Wr(0, 2)) {
		t.Fatalf("tool saw %v, want only wr(0,2)", rec.events)
	}
}

func TestValidatorIrreparableDroppedUnderRepair(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyRepair, trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 1), // fork of existing thread: irreparable
		trace.JoinOf(2, 2), // self-join: irreparable
	})
	h := d.Health()
	if h.Violations != 2 || h.Dropped != 2 || h.Repaired != 0 {
		t.Fatalf("Health = %+v, want 2 irreparable violations dropped", h)
	}
	if len(rec.events) != 1 {
		t.Fatalf("tool saw %v, want only the first fork", rec.events)
	}
}

func TestValidatorAbsurdIdsCapped(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	d.Policy = PolicyRepair
	d.MaxTid = 100
	d.MaxTarget = 1000
	d.Feed(trace.Trace{
		trace.Wr(101, 1),     // tid over cap: dropped
		trace.Wr(0, 1001),    // target over cap: dropped
		trace.ForkOf(0, 101), // forked tid over cap: dropped
		trace.Wr(-5, 1),      // negative tid: dropped
		trace.Wr(100, 1000),  // at the caps: repaired (unknown thread) and kept
	})
	h := d.Health()
	if h.Dropped != 4 {
		t.Fatalf("Health = %+v, want 4 dropped", h)
	}
	if len(rec.events) != 2 { // fork repair + the in-range write
		t.Fatalf("tool saw %v, want fork repair + wr(100,1000)", rec.events)
	}
}

func TestValidatorBarrierRepair(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyRepair, trace.Trace{
		trace.Barrier(1, 0, 2, 3), // threads 2 and 3 never forked
	})
	h := d.Health()
	if h.Repaired != 1 || h.Synthesized != 2 {
		t.Fatalf("Health = %+v, want 1 repair with 2 synthesized forks", h)
	}
	if len(rec.events) != 3 {
		t.Fatalf("tool saw %d events, want 2 forks + barrier", len(rec.events))
	}
}

func TestValidatorAcquireHeldElsewhere(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyRepair, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Acq(0, 7),
		trace.Acq(1, 7), // held by 0: repair releases the phantom hold
	})
	h := d.Health()
	if h.Repaired != 1 || h.Synthesized != 1 {
		t.Fatalf("Health = %+v, want 1 repair / 1 synthesized release", h)
	}
	want := trace.Trace{
		trace.ForkOf(0, 1), trace.Acq(0, 7), trace.Rel(0, 7), trace.Acq(1, 7),
	}
	if len(rec.events) != len(want) {
		t.Fatalf("tool saw %v, want %v", rec.events, want)
	}
	for i, e := range want {
		if !evEq(rec.events[i], e) {
			t.Errorf("event %d = %v, want %v", i, rec.events[i], e)
		}
	}
}

// TestUnheldReleaseInterceptedUnderPolicyOff is the regression test for
// the dispatcher forwarding depth-0 releases unchecked: even with
// validation off, an unheld release must never reach the tool.
func TestUnheldReleaseInterceptedUnderPolicyOff(t *testing.T) {
	rec := &recorder{}
	d := feedAll(t, rec, PolicyOff, trace.Trace{
		trace.Rel(0, 7),
		trace.Event{Kind: trace.Wait, Tid: 0, Target: 8},
		trace.Wr(0, 1),
	})
	if d.UnheldReleases != 2 {
		t.Fatalf("UnheldReleases = %d, want 2", d.UnheldReleases)
	}
	if len(rec.events) != 1 || !evEq(rec.events[0], trace.Wr(0, 1)) {
		t.Fatalf("tool saw %v, want only the write", rec.events)
	}
	h := d.Health()
	if h.Healthy {
		t.Error("Health.Healthy with intercepted unheld releases")
	}
	if h.UnheldReleases != 2 {
		t.Errorf("Health.UnheldReleases = %d, want 2", h.UnheldReleases)
	}
}

// panicTool panics on every access to a chosen target.
type panicTool struct {
	recorder
	target uint64
}

func (p *panicTool) HandleEvent(i int, e trace.Event) {
	if e.Kind.IsAccess() && e.Target == p.target {
		panic("panicTool: poisoned location")
	}
	p.recorder.HandleEvent(i, e)
}

func TestQuarantineSkipsPoisonedLocation(t *testing.T) {
	pt := &panicTool{target: 5}
	d := NewDispatcher(pt)
	d.Feed(trace.Trace{
		trace.Wr(0, 5), // panic; 5 quarantined
		trace.Wr(0, 5), // skipped
		trace.Rd(0, 5), // skipped
		trace.Wr(0, 6), // delivered
	})
	h := d.Health()
	if h.Panics != 1 || h.QuarantinedLocations != 1 || h.QuarantinedAccesses != 2 {
		t.Fatalf("Health = %+v, want 1 panic, 1 location, 2 skipped accesses", h)
	}
	if !d.Quarantined(5) || d.Quarantined(6) {
		t.Error("Quarantined() does not match the poisoned location")
	}
	if len(pt.events) != 1 || !evEq(pt.events[0], trace.Wr(0, 6)) {
		t.Fatalf("tool saw %v, want only wr(0,6)", pt.events)
	}
	if len(h.PanicLog) != 1 || h.PanicLog[0].Index != 0 {
		t.Fatalf("PanicLog = %v, want one record at index 0", h.PanicLog)
	}
}

// alwaysPanicTool panics on every event and on every query, exercising
// the downgrade wrapper's recover guards.
type alwaysPanicTool struct{}

func (alwaysPanicTool) Name() string                 { panic("name") }
func (alwaysPanicTool) HandleEvent(int, trace.Event) { panic("handle") }
func (alwaysPanicTool) Races() []Report              { panic("races") }
func (alwaysPanicTool) Stats() Stats                 { panic("stats") }

func TestToolDowngradeGuardsQueries(t *testing.T) {
	d := NewDispatcher(alwaysPanicTool{})
	for x := uint64(0); x < DefaultMaxToolPanics+3; x++ {
		d.Event(trace.Wr(0, x*FieldsPerObject))
	}
	h := d.Health()
	if !h.ToolDisabled || h.Panics != DefaultMaxToolPanics {
		t.Fatalf("Health = %+v, want downgrade after %d panics", h, DefaultMaxToolPanics)
	}
	// The downgraded wrapper must absorb the inner tool's panicking
	// accessors.
	if name := d.Tool.Name(); name != "disabled" {
		t.Errorf("Name() = %q, want \"disabled\" fallback", name)
	}
	if rs := d.Tool.Races(); rs != nil {
		t.Errorf("Races() = %v, want nil from guarded accessor", rs)
	}
	_ = d.Tool.Stats()
}

func TestFillStatsMergesResilienceCounters(t *testing.T) {
	pt := &panicTool{target: 3}
	d := NewDispatcher(pt)
	d.Policy = PolicyRepair
	d.Feed(trace.Trace{
		trace.Rel(0, 9),    // repaired
		trace.Wr(0, 3),     // panic + quarantine
		trace.JoinOf(0, 0), // self-join: irreparable, dropped
	})
	var st Stats
	d.FillStats(&st)
	if st.Panics != 1 || st.Quarantined != 1 {
		t.Errorf("Stats panics/quarantined = %d/%d, want 1/1", st.Panics, st.Quarantined)
	}
	if st.Violations != 2 || st.Repaired != 1 || st.Dropped != 1 {
		t.Errorf("Stats violations/repaired/dropped = %d/%d/%d, want 2/1/1",
			st.Violations, st.Repaired, st.Dropped)
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyOff, PolicyStrict, PolicyRepair, PolicyDrop} {
		got, ok := PolicyFromString(p.String())
		if !ok || got != p {
			t.Errorf("PolicyFromString(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := PolicyFromString("bogus"); ok {
		t.Error("PolicyFromString accepted bogus")
	}
}
