package rr

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"fasttrack/internal/obs"
	"fasttrack/trace"
)

// recorder captures the events a tool receives.
type recorder struct {
	events []trace.Event
	idx    []int
	st     Stats
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) HandleEvent(i int, e trace.Event) {
	r.events = append(r.events, e)
	r.idx = append(r.idx, i)
	r.st.Events++
}
func (r *recorder) Races() []Report { return nil }
func (r *recorder) Stats() Stats    { return r.st }

// passNone is a prefilter that blocks every access.
type passNone struct{ recorder }

func (p *passNone) HandleFilter(i int, e trace.Event) bool {
	p.HandleEvent(i, e)
	return false
}

func TestDispatcherForwardsPlainEvents(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	tr := trace.Trace{trace.Rd(0, 1), trace.Wr(0, 2), trace.ForkOf(0, 1)}
	d.Feed(tr)
	if len(rec.events) != 3 {
		t.Fatalf("forwarded %d events, want 3", len(rec.events))
	}
	for i, idx := range rec.idx {
		if idx != i {
			t.Errorf("event %d delivered with index %d", i, idx)
		}
	}
	if d.Fed != 3 {
		t.Errorf("Fed = %d", d.Fed)
	}
}

func TestDispatcherReentrantLockFiltering(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	d.Feed(trace.Trace{
		trace.Acq(0, 5),
		trace.Acq(0, 5), // re-entrant: dropped
		trace.Rel(0, 5), // inner release: dropped
		trace.Rel(0, 5),
	})
	if len(rec.events) != 2 {
		t.Fatalf("forwarded %d lock events, want 2: %v", len(rec.events), rec.events)
	}
	if d.FilteredReentrant != 2 {
		t.Errorf("FilteredReentrant = %d, want 2", d.FilteredReentrant)
	}
	// Different threads' holds of different locks are independent.
	d.Feed(trace.Trace{trace.Acq(1, 5), trace.Acq(0, 6)})
	if len(rec.events) != 4 {
		t.Errorf("independent acquires were filtered")
	}
}

func TestDispatcherWaitExpansion(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	d.Feed(trace.Trace{
		trace.Acq(0, 5),
		{Kind: trace.Wait, Tid: 0, Target: 5},
		trace.Acq(0, 5), // wake-up: must NOT be treated as re-entrant
		trace.Rel(0, 5),
	})
	want := []trace.Kind{trace.Acquire, trace.Release, trace.Acquire, trace.Release}
	if len(rec.events) != len(want) {
		t.Fatalf("forwarded %d events, want %d: %v", len(rec.events), len(want), rec.events)
	}
	for i, k := range want {
		if rec.events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, rec.events[i].Kind, k)
		}
	}
}

func TestDispatcherWaitUnderReentrantHold(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	d.Feed(trace.Trace{
		trace.Acq(0, 5),
		trace.Acq(0, 5), // depth 2 (dropped)
		{Kind: trace.Wait, Tid: 0, Target: 5},
	})
	// Conservatively treated as releasing one level: nothing forwarded.
	if len(rec.events) != 1 {
		t.Fatalf("events = %v", rec.events)
	}
	d.Feed(trace.Trace{trace.Event{Kind: trace.Wait, Tid: 0, Target: 5}})
	if len(rec.events) != 2 || rec.events[1].Kind != trace.Release {
		t.Fatalf("outermost wait must forward a release: %v", rec.events)
	}
}

func TestDispatcherDropsNotify(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	d.Feed(trace.Trace{trace.Event{Kind: trace.Notify, Tid: 0, Target: 5}})
	if len(rec.events) != 0 {
		t.Errorf("notify forwarded: %v", rec.events)
	}
}

func TestDispatcherCoarseGranularity(t *testing.T) {
	rec := &recorder{}
	d := NewDispatcher(rec)
	d.Granularity = Coarse
	d.Feed(trace.Trace{trace.Rd(0, 0), trace.Rd(0, FieldsPerObject-1), trace.Rd(0, FieldsPerObject)})
	if rec.events[0].Target != rec.events[1].Target {
		t.Error("fields of one object must share a shadow location")
	}
	if rec.events[1].Target == rec.events[2].Target {
		t.Error("different objects must not share a shadow location")
	}
	// Locks are not remapped.
	d.Feed(trace.Trace{trace.Acq(0, FieldsPerObject)})
	if rec.events[3].Target != FieldsPerObject {
		t.Errorf("lock id remapped to %d", rec.events[3].Target)
	}
}

func TestPipelineFiltersAccessesPassesSync(t *testing.T) {
	pre := &passNone{}
	back := &recorder{}
	p := &Pipeline{Pre: pre, Back: back}
	if p.Name() != "recorder:recorder" {
		t.Errorf("Name = %q", p.Name())
	}
	p.HandleEvent(0, trace.Rd(0, 1))
	p.HandleEvent(1, trace.Acq(0, 2))
	p.HandleEvent(2, trace.Wr(0, 1))
	p.HandleEvent(3, trace.Event{Kind: trace.TxBegin, Tid: 0})
	if len(back.events) != 2 {
		t.Fatalf("back end saw %v, want sync+tx only", back.events)
	}
	if p.Filtered != 2 || p.Passed != 0 {
		t.Errorf("Filtered=%d Passed=%d", p.Filtered, p.Passed)
	}
	if len(pre.events) != 4 {
		t.Errorf("prefilter must see every event, saw %d", len(pre.events))
	}
	if st := p.Stats(); st.Events != 4+2 {
		t.Errorf("merged Events = %d, want 6", st.Events)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Var: 3, Kind: WriteWrite, Tid: 1, PrevTid: 0, Index: 7, PrevIndex: -1}
	if got := r.String(); got != "write-write race on x3: thread 1 conflicts with thread 0 (event 7)" {
		t.Errorf("String = %q", got)
	}
	// When the prior access's index is known (detailed reports), both
	// halves of the race are pinpointed.
	r.PrevIndex = 4
	if got := r.String(); got != "write-write race on x3: thread 1 (event 7) conflicts with thread 0 (event 4)" {
		t.Errorf("String = %q", got)
	}
	r.PrevIndex = -1
	r.PrevTid = -1
	if got := r.String(); got != "write-write race on x3: thread 1 (event 7)" {
		t.Errorf("String = %q", got)
	}
}

func TestRaceKindStrings(t *testing.T) {
	cases := map[RaceKind]string{
		WriteWrite:           "write-write race",
		WriteRead:            "write-read race",
		ReadWrite:            "read-write race",
		LockSetViolation:     "empty lockset",
		AtomicityViolation:   "atomicity violation",
		DeterminismViolation: "determinism violation",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestEveryStatsFieldPublishedAndMerged: PublishStats gives every Stats
// field a gauge named after its JSON key, and Merge sums every field, so
// a counter added to Stats cannot be left out of either. A zero Stats
// publishes only the always-present gauges.
func TestEveryStatsFieldPublishedAndMerged(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	reg := obs.NewRegistry()
	PublishStats(reg, "tool", st)
	snap := reg.Snapshot()
	merged := st
	merged.Merge(st)
	mv := reflect.ValueOf(merged)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if got := snap.Gauge("tool." + name); got != int64(i+1) {
			t.Errorf("%s: gauge tool.%s = %d, want %d", f.Name, name, got, i+1)
		}
		if got := mv.Field(i).Int(); got != 2*int64(i+1) {
			t.Errorf("%s: Merge gave %d, want %d", f.Name, got, 2*(i+1))
		}
	}

	zero := obs.NewRegistry()
	PublishStats(zero, "tool", Stats{})
	var names []string
	for name := range zero.Snapshot().Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{"tool.events", "tool.reads", "tool.shadowBytes", "tool.syncs", "tool.writes"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("zero Stats published %v, want %v", names, want)
	}
}
