package rt

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fasttrack/trace"
)

// memSink keeps the stream in memory. events copies, because the shim
// reuses the slice it passes.
type memSink struct{ evs []trace.Event }

func (s *memSink) events(evs []trace.Event) { s.evs = append(s.evs, evs...) }
func (s *memSink) finish() error            { return nil }

// capture restarts the shim onto an in-memory sink, with the calling
// goroutine as the main thread. Read the sink after Shutdown.
func capture(t *testing.T) *memSink {
	t.Helper()
	initOnce.Do(func() {}) // the environment's sink stays out of the tests
	s := &memSink{}
	start(s)
	return s
}

// accessTargets returns the variable ids of the stream's reads and
// writes by thread tid, in stream order.
func accessTargets(evs []trace.Event, tid int32) []uint64 {
	var ids []uint64
	for _, e := range evs {
		if (e.Kind == trace.Read || e.Kind == trace.Write) && e.Tid == tid {
			ids = append(ids, e.Target)
		}
	}
	return ids
}

// spawn runs body on a new goroutine registered the way the rewriter
// registers a go statement, and waits for it.
func spawn(parent *G, body func()) {
	tid := parent.Fork()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Begin(tid)
		defer End()
		body()
	}()
	<-done
}

func TestVarIDsDenseInStreamOrder(t *testing.T) {
	s := capture(t)
	const n = 3*flushThreshold + 17 // several flushes
	var xs [n]uint64
	var h G
	for i := range xs {
		h.W(&xs[i])
	}
	spawn(&h, func() {
		var c G
		for i := n - 1; i >= 0; i-- {
			c.R(&xs[i])
		}
	})
	Shutdown()

	main, child := accessTargets(s.evs, 0), accessTargets(s.evs, 1)
	if len(main) != n || len(child) != n {
		t.Fatalf("got %d main and %d child accesses, want %d each", len(main), len(child), n)
	}
	for i := range xs {
		if main[i] != uint64(i) {
			t.Fatalf("main access %d has id %d: ids are not dense in stream order", i, main[i])
		}
		if got := child[n-1-i]; got != main[i] {
			t.Fatalf("xs[%d] is x%d on the main goroutine but x%d on the child", i, main[i], got)
		}
	}
}

func TestCoalescesAdjacentDuplicates(t *testing.T) {
	s := capture(t)
	var x, y uint64
	var h G
	h.R(&x)
	h.R(&x) // coalesced
	h.W(&x)
	h.W(&x) // coalesced
	h.R(&x)
	h.R(&y)
	h.R(&x) // not adjacent to the first: kept
	Shutdown()
	want := []trace.Event{trace.Rd(0, 0), trace.Wr(0, 0), trace.Rd(0, 0), trace.Rd(0, 1), trace.Rd(0, 0)}
	if !reflect.DeepEqual(s.evs, want) {
		t.Fatalf("stream %v, want %v", s.evs, want)
	}
}

func TestAccessesLandBeforeOwnSyncEvent(t *testing.T) {
	s := capture(t)
	var x, y, z uint64
	var mu sync.Mutex
	var h G
	h.W(&x)
	spawn(&h, func() {
		var c G
		c.R(&y)
		c.Acquire(&mu)
		c.W(&z)
		c.Release(&mu)
		c.R(&x)
	})
	h.R(&y)
	h.Acquire(&mu)
	Shutdown()
	want := []trace.Event{
		trace.Wr(0, 0), trace.ForkOf(0, 1),
		trace.Rd(1, 1), trace.Acq(1, 0), trace.Wr(1, 2), trace.Rel(1, 0), trace.Rd(1, 0),
		trace.Rd(0, 1), trace.Acq(0, 0),
	}
	if !reflect.DeepEqual(s.evs, want) {
		t.Fatalf("stream\n%v\nwant\n%v", s.evs, want)
	}
}

func TestHandleResolvesOncePerInvocation(t *testing.T) {
	capture(t)
	defer Shutdown()
	var xs [2 * flushThreshold]uint64
	var mu sync.Mutex
	invocation := func() {
		var h G
		for i := range xs {
			h.R(&xs[i])
			h.W(&xs[i])
		}
		h.Acquire(&mu)
		h.Release(&mu)
		h.ChanSend(make(chan int))
	}
	before := resolves.Load()
	invocation()
	invocation()
	if got := resolves.Load() - before; got != 2 {
		t.Fatalf("two invocations resolved the goroutine %d times, want 2", got)
	}
	before = resolves.Load()
	for i := 0; i < 10; i++ {
		R(&xs[i])
	}
	if got := resolves.Load() - before; got != 10 {
		t.Fatalf("10 one-shot reads resolved the goroutine %d times, want 10", got)
	}
}

func TestOneShotMatchesHandle(t *testing.T) {
	var x, y uint64
	var mu sync.Mutex
	run := func(r, w func(any), acq, rel func(any), fork func() int32) []trace.Event {
		s := capture(t)
		r(&x)
		w(&y)
		acq(&mu)
		w(&x)
		rel(&mu)
		fork()
		r(&y)
		Shutdown()
		return s.evs
	}
	oneShot := run(R, W, Acquire, Release, Fork)
	var h G
	viaHandle := run(h.R, h.W, h.Acquire, h.Release, h.Fork)
	if len(oneShot) != 7 {
		t.Fatalf("one-shot stream has %d events, want 7: %v", len(oneShot), oneShot)
	}
	if !reflect.DeepEqual(oneShot, viaHandle) {
		t.Fatalf("one-shot stream\n%v\nhandle stream\n%v", oneShot, viaHandle)
	}
}

// TestConcurrentGoroutines runs the same record/sync program on several
// goroutines at once: every goroutine must see the same dense ids for
// the same addresses, with its own events in program order.
func TestConcurrentGoroutines(t *testing.T) {
	s := capture(t)
	const workers, rounds, slots = 4, 20, 3 * flushThreshold / 2
	var shared [slots]uint64
	var mu sync.Mutex
	var h G
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tid := h.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			Begin(tid)
			defer End()
			var c G
			for r := 0; r < rounds; r++ {
				for k := range shared {
					c.W(&shared[k])
				}
				c.Acquire(&mu)
				c.Release(&mu)
			}
		}()
	}
	wg.Wait()
	Shutdown()

	var want []trace.Event
	for r := 0; r < rounds; r++ {
		for k := range shared {
			want = append(want, trace.Wr(0, uint64(k)))
		}
		want = append(want, trace.Acq(0, 0), trace.Rel(0, 0))
	}
	perTid := map[int32][]trace.Event{}
	for _, e := range s.evs {
		if e.Kind != trace.Fork {
			perTid[e.Tid] = append(perTid[e.Tid], e)
		}
	}
	if len(perTid) != workers {
		t.Fatalf("events from %d threads, want %d", len(perTid), workers)
	}
	for tid, got := range perTid {
		for i := range got {
			got[i].Tid = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("thread %d's events differ from the program (%d events, want %d)", tid, len(got), len(want))
		}
	}
}

// TestNewSinkModes: the trace sink is the only one, and FASTTRACK_TRACE
// alone selects it; a missing FASTTRACK_TRACE is an error.
func TestNewSinkModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	for _, c := range []struct {
		path string
		ok   bool
	}{
		{path, true},
		{"", false},
	} {
		t.Setenv("FASTTRACK_TRACE", c.path)
		s, err := newSink()
		if (err == nil) != c.ok {
			t.Errorf("FASTTRACK_TRACE=%q: err %v, want ok=%v", c.path, err, c.ok)
		}
		if s != nil {
			if err := s.finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
