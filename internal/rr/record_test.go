package rr

import (
	"reflect"
	"testing"

	"fasttrack/trace"
)

func TestRecorderCapturesStream(t *testing.T) {
	r := NewRecorder()
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1),
		trace.Rd(1, 1),
		trace.Barrier(0, 0, 1),
	}
	for i, e := range tr {
		r.HandleEvent(i, e)
	}
	if !reflect.DeepEqual(r.Trace(), tr) {
		t.Errorf("recorded %v, want %v", r.Trace(), tr)
	}
	if r.Races() != nil {
		t.Error("recorder must not warn")
	}
	st := r.Stats()
	if st.Events != 4 || st.Reads != 1 || st.Writes != 1 || st.Syncs != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.ShadowBytes == 0 {
		t.Error("recorder storage not accounted")
	}
	if r.Name() != "Recorder" {
		t.Error("bad name")
	}
}

func TestRecorderCopiesBarrierTids(t *testing.T) {
	r := NewRecorder()
	tids := []int32{0, 1}
	r.HandleEvent(0, trace.Event{Kind: trace.BarrierRelease, Tids: tids})
	tids[0] = 99 // caller mutates its slice
	if r.Trace()[0].Tids[0] != 0 {
		t.Error("recorder must own the barrier participant set")
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &recorderTool{}, &recorderTool{}
	tee := NewTee(a, b)
	if tee.Name() != "Tee(recorder,recorder)" {
		t.Errorf("Name = %q", tee.Name())
	}
	tee.HandleEvent(0, trace.Rd(0, 1))
	tee.HandleEvent(1, trace.Wr(0, 2))
	if len(a.events) != 2 || len(b.events) != 2 {
		t.Errorf("fan-out failed: %d/%d", len(a.events), len(b.events))
	}
	if st := tee.Stats(); st.Events != 4 {
		t.Errorf("summed Events = %d, want 4", st.Events)
	}
	if got := tee.Races(); len(got) != 2 {
		t.Errorf("concatenated races = %v", got)
	}
}

// recorderTool is a minimal tool that records events and reports one
// fixed warning.
type recorderTool struct {
	events []trace.Event
	st     Stats
}

func (r *recorderTool) Name() string { return "recorder" }
func (r *recorderTool) HandleEvent(_ int, e trace.Event) {
	r.events = append(r.events, e)
	r.st.Events++
}
func (r *recorderTool) Races() []Report { return []Report{{Var: 1}} }
func (r *recorderTool) Stats() Stats    { return r.st }

// TestMapVar: the dispatcher maps variable ids to shadow locations by
// its granularity before delivery.
func TestMapVar(t *testing.T) {
	rec := &recorderTool{}
	d := NewDispatcher(rec)
	d.Feed(trace.Trace{trace.Rd(0, 17)})
	d.Granularity = Coarse
	d.Feed(trace.Trace{trace.Wr(0, 17)})
	if got := rec.events[0].Target; got != 17 {
		t.Errorf("fine granularity delivered x%d, want identity x17", got)
	}
	if got := rec.events[1].Target; got != 17/FieldsPerObject {
		t.Errorf("coarse granularity delivered x%d, want x%d", got, 17/FieldsPerObject)
	}
}
