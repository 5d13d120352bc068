package hb

import (
	"testing"

	"fasttrack/trace"
)

func racyVars(t *testing.T, tr trace.Trace) map[uint64]bool {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("infeasible test trace: %v", err)
	}
	return New(tr).RacyVars()
}

func TestProgramOrder(t *testing.T) {
	rv := racyVars(t, trace.Trace{trace.Wr(0, 1), trace.Rd(0, 1), trace.Wr(0, 1)})
	if len(rv) != 0 {
		t.Errorf("single-threaded trace racy: %v", rv)
	}
}

func TestPlainRace(t *testing.T) {
	rv := racyVars(t, trace.Trace{trace.ForkOf(0, 1), trace.Wr(0, 1), trace.Wr(1, 1)})
	if !rv[1] {
		t.Error("missed the unsynchronized write-write race")
	}
}

func TestLockOrdering(t *testing.T) {
	rv := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Acq(0, 9), trace.Wr(0, 1), trace.Rel(0, 9),
		trace.Acq(1, 9), trace.Rd(1, 1), trace.Rel(1, 9),
	})
	if len(rv) != 0 {
		t.Errorf("lock-ordered accesses racy: %v", rv)
	}
}

func TestLockOrderingIsTransitive(t *testing.T) {
	// 0 -> 1 via lock 8, 1 -> 2 via lock 9: 0's write ordered before 2's
	// read transitively.
	rv := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1), trace.ForkOf(0, 2),
		trace.Wr(0, 1),
		trace.Acq(0, 8), trace.Rel(0, 8),
		trace.Acq(1, 8), trace.Rel(1, 8),
		trace.Acq(1, 9), trace.Rel(1, 9),
		trace.Acq(2, 9), trace.Rel(2, 9),
		trace.Rd(2, 1),
	})
	if len(rv) != 0 {
		t.Errorf("transitive ordering missed: %v", rv)
	}
}

func TestForkJoinOrdering(t *testing.T) {
	rv := racyVars(t, trace.Trace{
		trace.Wr(0, 1),
		trace.ForkOf(0, 1),
		trace.Rd(1, 1),
		trace.Wr(1, 2),
		trace.JoinOf(0, 1),
		trace.Rd(0, 2),
	})
	if len(rv) != 0 {
		t.Errorf("fork/join ordering missed: %v", rv)
	}
}

// TestJoinOfIdleThread: a join of a thread that executed nothing still
// happens after that thread's fork ([FT JOIN] reads the joined thread's
// clock, which its fork set), so thread 0's write before the fork is
// ordered before thread 2's read after the join.
func TestJoinOfIdleThread(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 2), // 0
		trace.Wr(2, 9),     // 1
		trace.Wr(0, 1),     // 2
		trace.ForkOf(0, 1), // 3
		trace.JoinOf(2, 1), // 4: thread 1 never ran
		trace.Rd(2, 1),     // 5
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("infeasible test trace: %v", err)
	}
	o := New(tr)
	if !o.HappensBefore(3, 4) || !o.HappensBefore(2, 5) {
		t.Error("the join of an idle thread must happen after its fork")
	}
	if rv := o.RacyVars(); len(rv) != 0 {
		t.Errorf("racy: %v", rv)
	}
}

func TestVolatileWriteReadEdgeOnly(t *testing.T) {
	// vwr -> vrd creates ordering; two vwr do not order each other.
	ordered := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1), trace.VWr(0, 0),
		trace.VRd(1, 0), trace.Rd(1, 1),
	})
	if len(ordered) != 0 {
		t.Errorf("volatile publication missed: %v", ordered)
	}
	// Writer b does not happen after writer a just because both wrote
	// the volatile.
	unordered := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1), trace.VWr(0, 0),
		trace.VWr(1, 0), trace.Rd(1, 1),
	})
	if !unordered[1] {
		t.Error("volatile write-write must not create happens-before")
	}
	// But a reader is ordered after ALL previous volatile writers.
	multi := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1), trace.ForkOf(0, 2),
		trace.Wr(1, 1), trace.VWr(1, 0),
		trace.Wr(2, 2), trace.VWr(2, 0),
		trace.VRd(0, 0), trace.Rd(0, 1), trace.Rd(0, 2),
	})
	if len(multi) != 0 {
		t.Errorf("reader not ordered after all volatile writers: %v", multi)
	}
}

func TestBarrierOrdering(t *testing.T) {
	rv := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1), trace.Wr(1, 2),
		trace.Barrier(0, 0, 1),
		trace.Rd(1, 1), trace.Rd(0, 2),
	})
	if len(rv) != 0 {
		t.Errorf("barrier ordering missed: %v", rv)
	}
	// Post-barrier accesses of different threads stay concurrent.
	rv = racyVars(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Barrier(0, 0, 1),
		trace.Wr(0, 1), trace.Wr(1, 1),
	})
	if !rv[1] {
		t.Error("post-barrier concurrency missed")
	}
}

func TestReadReadNotConflicting(t *testing.T) {
	rv := racyVars(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Rd(0, 1), trace.Rd(1, 1),
	})
	if len(rv) != 0 {
		t.Errorf("read-read pair reported: %v", rv)
	}
}

func TestRacesReturnsPairs(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1),
		trace.Wr(1, 1),
		trace.Rd(0, 1),
	}
	races := New(tr).Races()
	// Pairs: (wr0,wr1), (wr1,rd0) — the (wr0,rd0) pair is program-
	// ordered.
	if len(races) != 2 {
		t.Fatalf("races = %v, want 2 pairs", races)
	}
	for _, r := range races {
		if r.I >= r.J {
			t.Errorf("pair indices out of order: %+v", r)
		}
		if r.Var != 1 {
			t.Errorf("pair on wrong var: %+v", r)
		}
	}
}

func TestHappensBeforeAndConcurrent(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1), // 0
		trace.Wr(0, 1),     // 1
		trace.Wr(1, 2),     // 2
	}
	o := New(tr)
	if !o.HappensBefore(0, 1) || !o.HappensBefore(0, 2) {
		t.Error("fork must precede both threads' events")
	}
	if o.HappensBefore(1, 2) || o.HappensBefore(2, 1) {
		t.Error("events 1 and 2 must be unordered")
	}
	if !o.Concurrent(1, 2) || !o.Concurrent(2, 1) {
		t.Error("Concurrent must be symmetric")
	}
	if o.Concurrent(1, 1) {
		t.Error("an event is not concurrent with itself")
	}
}

func TestWaitEventProgramOrderOnly(t *testing.T) {
	// The oracle sees raw traces (pre-dispatcher), where Wait carries no
	// edge of its own; this just exercises the default path.
	rv := racyVars(t, trace.Trace{
		trace.Acq(0, 9),
		trace.Event{Kind: trace.Wait, Tid: 0, Target: 9},
		trace.Acq(0, 9),
		trace.Rd(0, 1),
		trace.Rel(0, 9),
	})
	if len(rv) != 0 {
		t.Errorf("racy: %v", rv)
	}
}
