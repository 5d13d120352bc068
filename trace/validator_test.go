package trace_test

import (
	"testing"

	"fasttrack/internal/detectors/empty"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// validatorCases pins the first violation's index and message for the
// Section 2.1 constraints, including runs of events by one thread
// around forks and joins. index -1 marks a feasible trace.
var validatorCases = []struct {
	name  string
	tr    trace.Trace
	index int
	msg   string
}{
	{"access before fork", trace.Trace{trace.Wr(0, 1), trace.Rd(1, 1), trace.ForkOf(0, 1)},
		1, "thread 1 is not running"},
	{"access before fork after a run", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.Wr(1, 2), trace.Rd(2, 1)},
		3, "thread 2 is not running"},
	{"access after join", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.Wr(0, 2), trace.JoinOf(0, 1), trace.Rd(1, 1)},
		4, "thread 1 is not running"},
	{"access after join of the last thread", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.Wr(1, 2), trace.JoinOf(0, 1), trace.Rd(1, 1)},
		4, "thread 1 is not running"},
	{"sync after join of the last thread", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.JoinOf(0, 1), trace.Acq(1, 3)},
		3, "thread 1 is not running"},
	{"join of a thread that executed nothing", trace.Trace{trace.ForkOf(0, 1), trace.Wr(0, 1), trace.JoinOf(0, 1)},
		-1, ""},
	{"join of a thread whose fork was its only sign", trace.Trace{trace.ForkOf(0, 1), trace.ForkOf(0, 2), trace.Wr(2, 1), trace.JoinOf(0, 1)},
		-1, ""},
	{"second join", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.JoinOf(0, 1), trace.JoinOf(0, 1)},
		3, "join of thread 1 which is not running"},
	{"join by a joined thread", trace.Trace{trace.ForkOf(0, 1), trace.ForkOf(1, 2), trace.Wr(2, 1), trace.Wr(1, 1), trace.JoinOf(0, 1), trace.JoinOf(1, 2)},
		5, "thread 1 is not running"},
	{"self join in a run", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.JoinOf(1, 1)},
		2, "thread 1 joins itself"},
	{"self fork", trace.Trace{trace.ForkOf(0, 0)},
		0, "thread 0 forks itself"},
	{"barrier with a joined thread", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.JoinOf(0, 1), trace.Barrier(0, 0, 1)},
		3, "barrier releases thread 1 which is not running"},
	{"barrier of running threads", trace.Trace{trace.ForkOf(0, 1), trace.Barrier(0, 0, 1), trace.JoinOf(0, 1), trace.Wr(0, 1)},
		-1, ""},
	{"re-entrant acquire across a run", trace.Trace{trace.Acq(0, 1), trace.Wr(0, 1), trace.Acq(0, 1), trace.Rel(0, 1), trace.Rel(0, 1)},
		-1, ""},
	{"release past the re-entrant depth", trace.Trace{trace.Acq(0, 1), trace.Acq(0, 1), trace.Rel(0, 1), trace.Rel(0, 1), trace.Rel(0, 1)},
		4, "thread 0 releases lock m1 it does not hold"},
	{"re-entrant hold keeps others out", trace.Trace{trace.ForkOf(0, 1), trace.Acq(0, 1), trace.Acq(0, 1), trace.Rel(0, 1), trace.Acq(1, 1)},
		4, "lock m1 already held by thread 0"},
	{"wait gives back one level", trace.Trace{trace.Acq(0, 1), trace.Acq(0, 1), {Kind: trace.Wait, Tid: 0, Target: 1}, trace.Rel(0, 1), trace.Rel(0, 1)},
		4, "thread 0 releases lock m1 it does not hold"},
	{"wait without the lock", trace.Trace{trace.Acq(0, 1), trace.Rel(0, 1), {Kind: trace.Wait, Tid: 0, Target: 1}},
		2, "thread 0 waits on lock m1 it does not hold"},
	{"release by a non-owner", trace.Trace{trace.ForkOf(0, 1), trace.Acq(0, 1), trace.Wr(1, 1), trace.Rel(1, 1)},
		3, "thread 1 releases lock m1 it does not hold"},
	{"release of a free lock", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.Rel(1, 1)},
		2, "thread 1 releases lock m1 it does not hold"},
	{"fork of a running thread", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.ForkOf(0, 1)},
		2, "fork of thread 1 which already exists"},
	{"fork of a joined thread", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.JoinOf(0, 1), trace.ForkOf(0, 1)},
		3, "fork of thread 1 which already terminated"},
	{"runs that interleave", trace.Trace{trace.ForkOf(0, 1), trace.Wr(1, 1), trace.Wr(0, 1), trace.Rd(1, 1), trace.Rd(0, 2), trace.JoinOf(0, 1), trace.Wr(0, 3)},
		-1, ""},
	{"largest tid", trace.Trace{trace.ForkOf(0, 1<<31-1), trace.Wr(1<<31-1, 1), trace.Wr(1<<31-1, 2), trace.JoinOf(0, 1<<31-1), trace.Rd(1<<31-1, 1)},
		4, "thread 2147483647 is not running"},
}

// TestValidatorTable checks each case's first violation, or that the
// trace is feasible, through Trace.Validate.
func TestValidatorTable(t *testing.T) {
	for _, c := range validatorCases {
		err := c.tr.Validate()
		if c.index < 0 {
			if err != nil {
				t.Errorf("%s: %v, want feasible", c.name, err)
			}
			continue
		}
		verr, ok := err.(*trace.ValidationError)
		if !ok || verr.Index != c.index || verr.Msg != c.msg || verr.Event.String() != c.tr[c.index].String() {
			t.Errorf("%s: %v, want event %d (%s): %s", c.name, err, c.index, c.tr[c.index], c.msg)
		}
	}
}

// TestStrictDispatcherMatchesValidate: a PolicyStrict dispatcher runs
// the same state machine, so it stops every case at Trace.Validate's
// first error, with the same index and message. The tid cap is lifted
// so the largest-tid case reaches the state machine.
func TestStrictDispatcherMatchesValidate(t *testing.T) {
	for _, c := range validatorCases {
		d := rr.NewDispatcher(empty.New())
		d.Policy = rr.PolicyStrict
		d.MaxTid = 1<<31 - 1
		d.Feed(c.tr)
		if got, want := errText(d.Err()), errText(c.tr.Validate()); got != want {
			t.Errorf("%s: strict dispatcher %q, Validate %q", c.name, got, want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestValidatorAllocatesNothing: an access by the cached thread, most
// of every stream, touches no map and allocates nothing.
func TestValidatorAllocatesNothing(t *testing.T) {
	v := trace.NewValidator()
	if err := v.Event(trace.Wr(0, 1)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := v.Event(trace.Rd(0, 2)); err != nil {
			t.Fatal(err)
		}
		if err := v.Event(trace.Wr(0, 3)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per pair of accesses, want 0", allocs)
	}
}

// BenchmarkValidatorAccess measures the feasibility check on runs of
// accesses by two threads, the shape of an instrumented program's
// stream.
func BenchmarkValidatorAccess(b *testing.B) {
	tr := trace.Trace{trace.ForkOf(0, 1)}
	for i := 0; i < 256; i++ {
		tid := int32(i / 64 % 2)
		tr = append(tr, trace.Rd(tid, uint64(i)), trace.Wr(tid, uint64(i)))
	}
	b.ReportAllocs()
	v := trace.NewValidator()
	v.Event(tr[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Event(tr[1+i%(len(tr)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}
