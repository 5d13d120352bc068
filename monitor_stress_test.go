package fasttrack

import (
	"sync"
	"sync/atomic"
	"testing"

	"fasttrack/trace"
)

// TestMonitorConcurrentStress hammers one monitor from many goroutines
// (run with -race to also check the monitor's own synchronization): a
// mix of lock-protected shared work and thread-private work must stay
// silent, and the statistics must account for every event.
func TestMonitorConcurrentStress(t *testing.T) {
	m := NewMonitor(WithHints(Hints{Threads: 9, Vars: 256}))
	const (
		workers = 8
		iters   = 200
		lockID  = 1
		shared  = 0
	)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		m.Fork(0, int32(w))
	}
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			private := uint64(100 + tid)
			for i := 0; i < iters; i++ {
				m.Write(tid, private)
				m.Read(tid, private)
				mu.Lock()
				m.Acquire(tid, lockID)
				m.Read(tid, shared)
				m.Write(tid, shared)
				m.Release(tid, lockID)
				mu.Unlock()
			}
		}(int32(w))
	}
	wg.Wait()
	for w := 1; w <= workers; w++ {
		m.Join(0, int32(w))
	}
	m.Read(0, shared)

	if races := m.Races(); len(races) != 0 {
		t.Fatalf("false alarms under stress: %v", races)
	}
	st := m.Stats()
	wantAccesses := int64(workers*iters*4 + 1)
	if st.Reads+st.Writes != wantAccesses {
		t.Errorf("accesses = %d, want %d", st.Reads+st.Writes, wantAccesses)
	}
}

// TestMonitorConcurrentStressDisjoint: eight goroutines feeding
// accesses to disjoint variables produce no warnings, exact access
// accounting, and rule counters that sum to the access counts.
func TestMonitorConcurrentStressDisjoint(t *testing.T) {
	const feeders = 8
	const perFeeder = 2000

	m := NewMonitor()
	for f := 1; f <= feeders; f++ {
		m.Fork(0, int32(f))
	}
	var wg sync.WaitGroup
	for f := 1; f <= feeders; f++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			base := uint64(tid) * 1 << 20
			for k := 0; k < perFeeder; k++ {
				addr := base + uint64(k%64)
				m.Write(tid, addr)
				m.Read(tid, addr)
			}
		}(int32(f))
	}
	wg.Wait()
	for f := 1; f <= feeders; f++ {
		m.Join(0, int32(f))
	}

	if races := m.Races(); len(races) != 0 {
		t.Errorf("false alarms on disjoint variables: %v", races)
	}
	st := m.Stats()
	if want := int64(feeders * perFeeder); st.Reads != want || st.Writes != want {
		t.Errorf("accounting: reads=%d writes=%d, want %d each", st.Reads, st.Writes, want)
	}
	if got := st.ReadSameEpoch + st.ReadShared + st.ReadExclusive + st.ReadShare; got != st.Reads {
		t.Errorf("read rules sum to %d, Reads = %d", got, st.Reads)
	}
	if got := st.WriteSameEpoch + st.WriteExclusive + st.WriteShared; got != st.Writes {
		t.Errorf("write rules sum to %d, Writes = %d", got, st.Writes)
	}
}

// TestMonitorConcurrentStressRaceHandler: racing feeders reach the
// WithRaceHandler callback exactly once per reported warning.
func TestMonitorConcurrentStressRaceHandler(t *testing.T) {
	var fired atomic.Int64
	m := NewMonitor(WithRaceHandler(func(Report) { fired.Add(1) }))
	m.Fork(0, 1)
	m.Fork(0, 2)
	var wg sync.WaitGroup
	for _, tid := range []int32{1, 2} {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				m.Write(tid, 42) // same variable, no synchronization
				m.Write(tid, uint64(100+tid))
			}
		}(tid)
	}
	wg.Wait()
	m.Join(0, 1)
	m.Join(0, 2)

	races := m.Races()
	if len(races) == 0 {
		t.Fatal("no race reported for unsynchronized writes to one variable")
	}
	if got := fired.Load(); got != int64(len(races)) {
		t.Errorf("race handler fired %d times, %d races reported", got, len(races))
	}
}

// TestMonitorGranularityOption: the Coarse option folds fields and can
// produce the documented spurious warnings.
func TestMonitorGranularityOption(t *testing.T) {
	m := NewMonitor(WithGranularity(Coarse))
	m.Fork(0, 1)
	// Fields 0 and 1 share an object; each has its own lock.
	m.Acquire(0, 100)
	m.Write(0, 0)
	m.Release(0, 100)
	m.Acquire(1, 200)
	m.Write(1, 1)
	m.Release(1, 200)
	if races := m.Races(); len(races) == 0 {
		t.Error("coarse monitor should warn on same-object fields")
	}
}

// TestMonitorTxMarkersReachTool: atomicity checkers behind a Monitor see
// transaction boundaries.
func TestMonitorTxMarkersReachTool(t *testing.T) {
	rec := NewRecorder()
	m := NewMonitor(WithTool(rec))
	m.TxBegin(0)
	m.Write(0, 1)
	m.TxEnd(0)
	tr := rec.Trace()
	if len(tr) != 3 || tr[0].Kind != trace.TxBegin || tr[2].Kind != trace.TxEnd {
		t.Errorf("recorded %v", tr)
	}
}

// TestMonitorVelodromeOnline: a full atomicity checker runs online
// behind the monitor.
func TestMonitorVelodromeOnline(t *testing.T) {
	vd, err := NewTool("Velodrome", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(WithTool(vd))
	m.Fork(0, 1)
	m.TxBegin(0)
	m.Read(0, 1)  // t0's txn reads x
	m.Write(1, 1) // t1 writes x
	m.Write(0, 1) // t0 writes x: cycle
	m.TxEnd(0)
	if races := m.Races(); len(races) != 1 {
		t.Errorf("races = %v, want one atomicity violation", races)
	}
}
