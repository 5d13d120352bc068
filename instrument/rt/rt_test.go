package rt

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fasttrack/trace"
)

// memSink keeps the encoded stream in memory.
type memSink struct{ bytes.Buffer }

func (s *memSink) Close() error { return nil }

// events decodes the stream. Call it after Shutdown.
func (s *memSink) events(t *testing.T) []trace.Event {
	t.Helper()
	var evs []trace.Event
	sc := trace.NewScanner(bytes.NewReader(s.Bytes()))
	for sc.Scan() {
		evs = append(evs, sc.Event())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("the shim's stream does not decode: %v", err)
	}
	return evs
}

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

	evs := s.events(t)
	main, child := accessTargets(evs, 0), accessTargets(evs, 1)
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

// TestIDTableMatchesMap: an idTable gives the ids a map assigning
// len(map) on first sight gives, for addresses that collide, address 0
// among them, through several doublings.
func TestIDTableMatchesMap(t *testing.T) {
	tab := newIDTable()
	want := map[uintptr]uint64{}
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p := uintptr(x % 4096 * 8) // about 5 lookups per address
		if i%1000 == 0 {
			p = 0
		}
		id, ok := want[p]
		if !ok {
			id = uint64(len(want))
			want[p] = id
		}
		if got := tab.id(p); got != id {
			t.Fatalf("lookup %d of %#x: id %d, want %d", i, p, got, id)
		}
	}
	if len(tab.slots) < 2*len(want) || len(tab.addrs) != len(want) {
		t.Fatalf("%d slots and %d addresses for %d ids", len(tab.slots), len(tab.addrs), len(want))
	}
}

// TestIDsInFirstSightOrderAcrossGrowth: two goroutines touch enough
// distinct addresses, concurrently and in opposite orders, to double
// the variable table many times. The ids must still be 0..n-1 in the
// order the addresses first enter the stream, and each address keeps
// its id on both goroutines.
func TestIDsInFirstSightOrderAcrossGrowth(t *testing.T) {
	s := capture(t)
	const n = 120_000
	xs := make([]uint64, n)
	var h G
	tids := [2]int32{h.Fork(), h.Fork()}
	var wg sync.WaitGroup
	for k, tid := range tids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Begin(tid)
			defer End()
			var c G
			for i := range xs {
				if k == 0 {
					c.W(&xs[i])
				} else {
					c.R(&xs[n-1-i])
				}
			}
		}()
	}
	wg.Wait()
	Shutdown()

	evs := s.events(t)
	var next uint64
	for _, e := range evs {
		if e.Kind.IsAccess() && e.Target >= next {
			if e.Target != next {
				t.Fatalf("x%d enters the stream after only %d ids were assigned", e.Target, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("%d distinct ids, want %d", next, n)
	}
	fwd, back := accessTargets(evs, tids[0]), accessTargets(evs, tids[1])
	if len(fwd) != n || len(back) != n {
		t.Fatalf("got %d and %d accesses, want %d each", len(fwd), len(back), n)
	}
	for i := range xs {
		if fwd[i] != back[n-1-i] {
			t.Fatalf("xs[%d] is x%d on one goroutine and x%d on the other", i, fwd[i], back[n-1-i])
		}
	}
}

// TestStreamMatchesWriter: for a fixed single-goroutine program, the
// shim's bytes are what trace.Writer encodes for the program's events,
// every sync entry point included.
func TestStreamMatchesWriter(t *testing.T) {
	s := capture(t)
	var x, y uint64
	var mu sync.Mutex
	var rw sync.RWMutex
	var wg sync.WaitGroup
	var once sync.Once
	ch := make(chan int, 3)
	var h G
	h.W(&x)
	h.R(&y)
	h.Acquire(&mu)
	h.W(&y)
	h.Release(&mu)
	h.RAcquire(&rw)
	h.R(&x)
	h.RRelease(&rw)
	h.AcquireRW(&rw)
	h.W(&x)
	h.ReleaseRW(&rw)
	h.WGDone(&wg)
	h.WGWait(&wg)
	h.OnceDo(&once)
	h.ChanSend(ch)
	h.ChanRecv(ch)
	h.ChanClose(ch)
	Shutdown()

	var want bytes.Buffer
	w := trace.NewWriter(&want, trace.Binary)
	for _, e := range []trace.Event{
		trace.Wr(0, 0), trace.Rd(0, 1), trace.Acq(0, 0), trace.Wr(0, 1), trace.Rel(0, 0),
		trace.VRd(0, 0), trace.Rd(0, 0), trace.VWr(0, 1),
		trace.Acq(0, 1), trace.VRd(0, 0), trace.VRd(0, 1), trace.Wr(0, 0), trace.VWr(0, 0), trace.Rel(0, 1),
		trace.VWr(0, 2), trace.VRd(0, 2),
		trace.Acq(0, 2), trace.Rel(0, 2),
		trace.ChSend(0, 0, 3), trace.ChRecv(0, 0, 3), trace.ChClose(0, 0, 3),
	} {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Bytes(), want.Bytes()) {
		t.Fatalf("shim stream\n%v\nwant\n%v", s.events(t), want.Bytes())
	}

	empty := capture(t)
	Shutdown()
	if got := empty.String(); got != "FTRK1\n" {
		t.Fatalf("a program without events writes %q, want the binary magic alone", got)
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
	if got := s.events(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream %v, want %v", got, want)
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
	if got := s.events(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream\n%v\nwant\n%v", got, want)
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
		return s.events(t)
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
	for _, e := range s.events(t) {
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
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// nopSink discards the stream.
type nopSink struct{}

func (nopSink) Write(p []byte) (int, error) { return len(p), nil }
func (nopSink) Close() error                { return nil }

// BenchmarkAccessFlush measures the shim's cost per access event from
// the record to the sink, without goroutine lookup: buffering, the id
// lookup at flush, encoding and the stream buffer. "reuse" cycles
// through 16384 addresses, "fresh" gives every access a new one, so
// each flush inserts into (and grows) the variable table.
func BenchmarkAccessFlush(b *testing.B) {
	for _, c := range []struct {
		name string
		addr func(i int) uintptr
	}{
		{"reuse", func(i int) uintptr { return uintptr(i%16384) * 8 }},
		{"fresh", func(i int) uintptr { return uintptr(i) * 8 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			initOnce.Do(func() {})
			start(nopSink{})
			defer Shutdown()
			g := self()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.record(c.addr(i), trace.Write)
			}
		})
	}
}
