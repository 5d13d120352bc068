package fasttrack

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"fasttrack/trace"
)

func TestToolNamesAndNewTool(t *testing.T) {
	names := ToolNames()
	want := []string{"Atomizer", "BasicVC", "DJIT+", "Empty", "Eraser", "FastTrack",
		"Goldilocks", "Goodlock", "MultiRace", "SingleTrack", "TL", "Velodrome", "WriteEpochsOnly"}
	if len(names) != len(want) {
		t.Fatalf("ToolNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("ToolNames = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		tool, err := NewTool(n, Hints{Threads: 4, Vars: 16})
		if err != nil {
			t.Errorf("NewTool(%q): %v", n, err)
			continue
		}
		if n != "TL" && n != "Empty" && tool.Name() != n {
			t.Errorf("NewTool(%q).Name() = %q", n, tool.Name())
		}
	}
	if _, err := NewTool("nope", Hints{}); err == nil {
		t.Error("NewTool must reject unknown names")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q should name the unknown tool", err)
	}
}

func TestReplayFindsRace(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 3),
		trace.Wr(1, 3),
	}
	tool, err := NewTool("FastTrack", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	races := Replay(tr, tool, Fine)
	if len(races) != 1 || races[0].Var != 3 || races[0].Kind != WriteWrite {
		t.Errorf("races = %v", races)
	}
}

func TestReplayCoarseGranularityFalseAlarm(t *testing.T) {
	// Variables 0 and 1 fold into the same shadow object under Coarse.
	// Each is protected by its own lock — a fine analysis is silent, the
	// coarse one warns (the "two fields protected by different locks"
	// example of Section 4).
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1))
	for i := 0; i < 4; i++ {
		tr = append(tr,
			trace.Acq(0, 100), trace.Wr(0, 0), trace.Rel(0, 100),
			trace.Acq(1, 200), trace.Wr(1, 1), trace.Rel(1, 200),
		)
	}
	fine, _ := NewTool("FastTrack", Hints{})
	if races := Replay(tr, fine, Fine); len(races) != 0 {
		t.Errorf("fine-grain false alarm: %v", races)
	}
	coarse, _ := NewTool("FastTrack", Hints{})
	if races := Replay(tr, coarse, Coarse); len(races) == 0 {
		t.Error("coarse-grain analysis should produce a (spurious) warning")
	}
}

func TestMonitorDetectsRaceAcrossGoroutines(t *testing.T) {
	m := NewMonitor()
	const counter = 1
	m.Fork(0, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Read(1, counter)
		m.Write(1, counter)
	}()
	m.Read(0, counter)
	m.Write(0, counter)
	wg.Wait()
	m.Join(0, 1)
	if races := m.Races(); len(races) == 0 {
		t.Error("monitor missed the unsynchronized counter race")
	}
}

func TestMonitorLockedCounterIsSilent(t *testing.T) {
	m := NewMonitor()
	const counter, lock = 1, 9
	m.Fork(0, 1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	body := func(tid int32) {
		for i := 0; i < 100; i++ {
			mu.Lock()
			m.Acquire(tid, lock)
			m.Read(tid, counter)
			m.Write(tid, counter)
			m.Release(tid, lock)
			mu.Unlock()
		}
	}
	go func() {
		defer wg.Done()
		body(1)
	}()
	body(0)
	wg.Wait()
	m.Join(0, 1)
	if races := m.Races(); len(races) != 0 {
		t.Errorf("false alarm on locked counter: %v", races)
	}
	if st := m.Stats(); st.Events == 0 {
		t.Error("stats should count events")
	}
}

func TestMonitorRaceHandlerFires(t *testing.T) {
	var got []Report
	m := NewMonitor(WithRaceHandler(func(r Report) { got = append(got, r) }))
	m.Fork(0, 1)
	m.Write(0, 7)
	m.Write(1, 7)
	if len(got) != 1 || got[0].Var != 7 {
		t.Errorf("handler got %v", got)
	}
}

func TestMonitorReentrantLocksFiltered(t *testing.T) {
	m := NewMonitor()
	m.Fork(0, 1)
	// Thread 0 acquires the lock re-entrantly; the inner pair must be
	// ignored, so the release at depth 1 publishes to thread 1.
	m.Acquire(0, 5)
	m.Acquire(0, 5) // re-entrant
	m.Write(0, 1)
	m.Release(0, 5) // re-entrant
	m.Release(0, 5)
	m.Acquire(1, 5)
	m.Read(1, 1)
	m.Release(1, 5)
	if races := m.Races(); len(races) != 0 {
		t.Errorf("false alarm with re-entrant locking: %v", races)
	}
}

func TestMonitorWaitNotify(t *testing.T) {
	// Producer/consumer via wait/notify: the waiter's wake-up
	// re-acquisition orders its read after the producer's critical
	// section, so the handoff is race-free.
	m := NewMonitor()
	m.Fork(0, 1)
	m.Acquire(1, 5)
	m.WaitBegin(1, 5) // releases lock 5, thread 1 blocks
	m.Acquire(0, 5)
	m.Write(0, 1)
	m.Notify(0, 5)
	m.Release(0, 5)
	m.WaitEnd(1, 5) // thread 1 wakes up, re-acquiring lock 5
	m.Read(1, 1)
	m.Release(1, 5)
	if races := m.Races(); len(races) != 0 {
		t.Errorf("false alarm with wait/notify: %v", races)
	}

	// Without the producer's release-before-wakeup ordering (consumer
	// reads outside the monitor before waiting) there is a race.
	m2 := NewMonitor()
	m2.Fork(0, 1)
	m2.Read(1, 1)
	m2.Write(0, 1)
	if races := m2.Races(); len(races) != 1 {
		t.Errorf("races = %v, want 1", m2.Races())
	}
}

func TestMonitorWithDetectorEraser(t *testing.T) {
	m := NewMonitor(WithDetector("Eraser"), WithHints(Hints{Threads: 2, Vars: 4}))
	m.Fork(0, 1)
	m.Write(0, 1)
	m.Write(1, 1)
	races := m.Races()
	if len(races) != 1 || races[0].Kind != LockSetViolation {
		t.Errorf("races = %v", races)
	}
}

func TestMonitorUnknownDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown detector")
		}
	}()
	NewMonitor(WithDetector("bogus"))
}

func TestComposePipeline(t *testing.T) {
	pre, err := NewTool("FastTrack", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewTool("Empty", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	pipe := Compose(pre.(Prefilter), back)
	if pipe.Name() != "FastTrack:Empty" {
		t.Errorf("Name = %q", pipe.Name())
	}
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 3),
		trace.Wr(0, 3),
		trace.Wr(1, 3), // race: passes downstream
	}
	Replay(tr, pipe, Fine)
	// The back end sees: fork + the racing write (race-free writes are
	// filtered out).
	if st := back.Stats(); st.Writes != 1 {
		t.Errorf("back end saw %d writes, want 1", st.Writes)
	}
}

func TestRecordThenReplay(t *testing.T) {
	// Record a live session through a Tee that simultaneously runs
	// FastTrack, then replay the recorded trace through Eraser.
	rec := NewRecorder()
	ft, err := NewTool("FastTrack", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(WithTool(Tee(rec, ft)))
	m.Fork(0, 1)
	m.Write(0, 5)
	m.Write(1, 5)
	if races := m.Races(); len(races) != 1 {
		t.Fatalf("live races = %v", races)
	}
	recorded := rec.Trace()
	if len(recorded) != 3 {
		t.Fatalf("recorded %d events, want 3", len(recorded))
	}
	er, err := NewTool("Eraser", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if races := Replay(recorded, er, Fine); len(races) != 1 {
		t.Errorf("replayed Eraser races = %v", races)
	}
}

func TestStreamRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewStreamRecorder(&buf, trace.Binary)
	ft, _ := NewTool("FastTrack", Hints{})
	m := NewMonitor(WithTool(Tee(rec, ft)))
	m.Fork(0, 1)
	m.Write(0, 5)
	m.Write(1, 5)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	// Stream the recorded bytes back through another detector.
	dj, _ := NewTool("DJIT+", Hints{})
	races, events, err := ReplayStream(&buf, dj, Fine, true)
	if err != nil {
		t.Fatal(err)
	}
	if events != 3 || len(races) != 1 {
		t.Errorf("events=%d races=%v", events, races)
	}
}

func TestReplayStreamValidates(t *testing.T) {
	in := "rel 0 m1\n"
	tool, _ := NewTool("FastTrack", Hints{})
	_, events, err := ReplayStream(strings.NewReader(in), tool, Fine, true)
	if want := (trace.Trace{trace.Rel(0, 1)}).Validate(); err == nil || events != 0 || err.Error() != want.Error() {
		t.Errorf("infeasible stream: events=%d err=%v, want 0 and %v", events, err, want)
	}
	// A stop in the middle of a decoded batch counts only the events
	// before it.
	var mid trace.Trace
	for i := 0; i < 1030; i++ {
		mid = append(mid, trace.Wr(0, 1))
	}
	mid = append(mid, trace.Rel(0, 1), trace.Wr(0, 2))
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, mid); err != nil {
		t.Fatal(err)
	}
	tool, _ = NewTool("FastTrack", Hints{})
	_, events, err = ReplayStream(&buf, tool, Fine, true)
	if want := mid.Validate(); err == nil || events != 1030 || err.Error() != want.Error() {
		t.Errorf("stop at event 1030: events=%d err=%v, want 1030 and %v", events, err, want)
	}
	tool2, _ := NewTool("FastTrack", Hints{})
	_, events, err = ReplayStream(strings.NewReader(in), tool2, Fine, false)
	if err != nil || events != 1 {
		t.Errorf("unvalidated stream: events=%d err=%v", events, err)
	}
}

// TestMonitorStopsAtAbsurdID: a Monitor holds its events to the
// identifier caps under every policy, the default included, so a write
// to a variable id of 2^40 stops the stream instead of sizing the
// detector's variable table by it, and later events are ignored.
func TestMonitorStopsAtAbsurdID(t *testing.T) {
	m := NewMonitor()
	m.Write(0, 1<<40)
	m.Write(0, 1)
	h := m.Health()
	if h.Err == nil || !strings.Contains(h.Err.Error(), "event 0 (wr 0 x1099511627776): target id") {
		t.Errorf("Health.Err = %v, want the cap stop at event 0", h.Err)
	}
	if st := m.Stats(); st.Events != 0 || st.ShadowBytes > 1<<20 {
		t.Errorf("detector saw %d events and holds %d shadow bytes, want none", st.Events, st.ShadowBytes)
	}
}

func TestDetailedReportsViaHints(t *testing.T) {
	tool, err := NewTool("FastTrack", Hints{DetailedReports: true})
	if err != nil {
		t.Fatal(err)
	}
	races := Replay(trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 5),
	}, tool, Fine)
	if len(races) != 1 || races[0].PrevIndex != 1 {
		t.Errorf("races = %v, want PrevIndex 1", races)
	}
}

func TestMonitorVolatileAndBarrier(t *testing.T) {
	m := NewMonitor()
	m.Fork(0, 1)
	m.Write(0, 1)
	m.VolatileWrite(0, 0)
	m.VolatileRead(1, 0)
	m.Read(1, 1)
	m.Write(1, 2)
	m.BarrierRelease(0, 0, 1)
	m.Read(0, 2)
	m.TxBegin(0)
	m.Write(0, 3)
	m.TxEnd(0)
	if races := m.Races(); len(races) != 0 {
		t.Errorf("false alarms: %v", races)
	}
}
