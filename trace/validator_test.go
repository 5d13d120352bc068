package trace

import "testing"

// TestValidatorTable pins the first violation's index and message for
// the thread-lifetime constraints, including runs of events by one
// thread around forks and joins.
func TestValidatorTable(t *testing.T) {
	for _, c := range []struct {
		name  string
		tr    Trace
		index int // -1: the trace is feasible
		msg   string
	}{
		{"access before fork", Trace{Wr(0, 1), Rd(1, 1), ForkOf(0, 1)},
			1, "thread 1 is not running"},
		{"access before fork after a run", Trace{ForkOf(0, 1), Wr(1, 1), Wr(1, 2), Rd(2, 1)},
			3, "thread 2 is not running"},
		{"access after join", Trace{ForkOf(0, 1), Wr(1, 1), Wr(0, 2), JoinOf(0, 1), Rd(1, 1)},
			4, "thread 1 is not running"},
		{"access after join of the last thread", Trace{ForkOf(0, 1), Wr(1, 1), Wr(1, 2), JoinOf(0, 1), Rd(1, 1)},
			4, "thread 1 is not running"},
		{"sync after join of the last thread", Trace{ForkOf(0, 1), Wr(1, 1), JoinOf(0, 1), Acq(1, 3)},
			3, "thread 1 is not running"},
		{"join of a thread that executed nothing", Trace{ForkOf(0, 1), Wr(0, 1), JoinOf(0, 1)},
			2, "join of thread 1 which executed no instruction"},
		{"join of a thread whose fork was its only sign", Trace{ForkOf(0, 1), ForkOf(0, 2), Wr(2, 1), JoinOf(0, 1)},
			3, "join of thread 1 which executed no instruction"},
		{"second join", Trace{ForkOf(0, 1), Wr(1, 1), JoinOf(0, 1), JoinOf(0, 1)},
			3, "join of thread 1 which is not running"},
		{"join by a joined thread", Trace{ForkOf(0, 1), ForkOf(1, 2), Wr(2, 1), Wr(1, 1), JoinOf(0, 1), JoinOf(1, 2)},
			5, "thread 1 is not running"},
		{"self join in a run", Trace{ForkOf(0, 1), Wr(1, 1), JoinOf(1, 1)},
			2, "thread 1 joins itself"},
		{"barrier with a joined thread", Trace{ForkOf(0, 1), Wr(1, 1), JoinOf(0, 1), Barrier(0, 0, 1)},
			3, "barrier releases thread 1 which is not running"},
		{"barrier activates its threads", Trace{ForkOf(0, 1), Barrier(0, 0, 1), JoinOf(0, 1), Wr(0, 1)},
			-1, ""},
		{"lock held across a run", Trace{Acq(0, 1), Wr(0, 1), Acq(0, 1)},
			2, "lock m1 already held by thread 0"},
		{"release by a non-owner", Trace{ForkOf(0, 1), Acq(0, 1), Wr(1, 1), Rel(1, 1)},
			3, "thread 1 releases lock m1 it does not hold"},
		{"fork of a running thread", Trace{ForkOf(0, 1), Wr(1, 1), ForkOf(0, 1)},
			2, "thread 1 already exists"},
		{"fork of a joined thread", Trace{ForkOf(0, 1), Wr(1, 1), JoinOf(0, 1), ForkOf(0, 1)},
			3, "thread 1 already exists"},
		{"runs that interleave", Trace{ForkOf(0, 1), Wr(1, 1), Wr(0, 1), Rd(1, 1), Rd(0, 2), JoinOf(0, 1), Wr(0, 3)},
			-1, ""},
		{"largest tid", Trace{ForkOf(0, 1<<31-1), Wr(1<<31-1, 1), Wr(1<<31-1, 2), JoinOf(0, 1<<31-1), Rd(1<<31-1, 1)},
			4, "thread 2147483647 is not running"},
	} {
		err := c.tr.Validate()
		if c.index < 0 {
			if err != nil {
				t.Errorf("%s: %v, want feasible", c.name, err)
			}
			continue
		}
		verr, ok := err.(*ValidationError)
		if !ok || verr.Index != c.index || verr.Msg != c.msg || verr.Event.String() != c.tr[c.index].String() {
			t.Errorf("%s: %v, want event %d (%s): %s", c.name, err, c.index, c.tr[c.index], c.msg)
		}
	}
}

// BenchmarkValidatorAccess measures the feasibility check on runs of
// accesses by two threads, the shape of an instrumented program's
// stream.
func BenchmarkValidatorAccess(b *testing.B) {
	tr := Trace{ForkOf(0, 1)}
	for i := 0; i < 256; i++ {
		tid := int32(i / 64 % 2)
		tr = append(tr, Rd(tid, uint64(i)), Wr(tid, uint64(i)))
	}
	b.ReportAllocs()
	v := NewValidator()
	v.Event(tr[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Event(tr[1+i%(len(tr)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}
