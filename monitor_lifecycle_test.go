package fasttrack

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"fasttrack/trace"
)

// raceyFeed drives a two-thread unsynchronized conflict through m.
func raceyFeed(m *Monitor) {
	m.Fork(0, 1)
	m.Write(0, 7)
	m.Write(1, 7)
}

func TestMonitorClose(t *testing.T) {
	m := NewMonitor()
	raceyFeed(m)
	wantRaces := m.Races()
	wantStats := m.Stats()
	if len(wantRaces) != 1 {
		t.Fatalf("expected 1 race before close, got %d", len(wantRaces))
	}

	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !m.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v (want idempotent nil)", err)
	}

	// Events after Close are rejected with a clear error...
	if err := m.Ingest(trace.Wr(0, 7)); !errors.Is(err, ErrMonitorClosed) {
		t.Errorf("Ingest after Close: err = %v, want ErrMonitorClosed", err)
	}
	m.Write(1, 99)  // typed methods become counted no-ops
	m.Acquire(0, 5) // sync path too
	if got := m.Rejected(); got != 3 {
		t.Errorf("Rejected = %d, want 3", got)
	}

	// ...while queries keep serving the final snapshot.
	if got := m.Races(); len(got) != len(wantRaces) || got[0] != wantRaces[0] {
		t.Errorf("Races after Close = %v, want %v", got, wantRaces)
	}
	if got := m.Stats(); got.Events != wantStats.Events {
		t.Errorf("Stats.Events after Close = %d, want %d", got.Events, wantStats.Events)
	}
	if h := m.Health(); !h.Healthy {
		t.Errorf("Health after clean Close not healthy: %+v", h)
	}
	if snap := m.Metrics(); snap.Gauge("tool.races") != 1 {
		t.Errorf("Metrics after Close: tool.races = %d, want 1", snap.Gauge("tool.races"))
	}
}

func TestMonitorReset(t *testing.T) {
	m := NewMonitor()
	raceyFeed(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if m.Closed() {
		t.Error("Closed() = true after Reset")
	}
	if got := m.Races(); len(got) != 0 {
		t.Errorf("Races after Reset = %v, want none", got)
	}
	// The reset monitor detects afresh.
	raceyFeed(m)
	if got := m.Races(); len(got) != 1 {
		t.Errorf("races after Reset+refeed = %d, want 1", len(got))
	}

	// Reset also works on an open monitor (discarding state).
	if err := m.Reset(); err != nil {
		t.Fatalf("Reset on open monitor: %v", err)
	}
	if got := m.Races(); len(got) != 0 {
		t.Errorf("Races after second Reset = %v, want none", got)
	}
}

func TestMonitorResetRejectsWithTool(t *testing.T) {
	tool, err := NewTool("FastTrack", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(WithTool(tool))
	if err := m.Reset(); err == nil {
		t.Error("Reset on a WithTool monitor succeeded, want error")
	}
}

// TestMonitorCloseReleasesWithTool: Close drops the detector's shadow
// state for a caller-supplied tool too, so a closed monitor that stays
// reachable (a daemon's retained session, say) does not pin it.
func TestMonitorCloseReleasesWithTool(t *testing.T) {
	tool, err := NewTool("FastTrack", Hints{})
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(tool, func(any) { close(released) })
	m := NewMonitor(WithTool(tool))
	tool = nil
	raceyFeed(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			if got := len(m.Races()); got != 1 {
				t.Errorf("Races after Close = %d, want 1", got)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("closed monitor still holds its WithTool detector")
}

// TestMonitorCloseConcurrentFeeders closes the monitor while producers
// are mid-stream; everything must stay race-free (under -race) and each
// producer must observe only nil or ErrMonitorClosed.
func TestMonitorCloseConcurrentFeeders(t *testing.T) {
	m := NewMonitor()
	for f := 0; f < 4; f++ {
		m.Fork(0, int32(f+1))
	}
	var wg sync.WaitGroup
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := m.Ingest(trace.Wr(tid, uint64(i%100))); err != nil {
					if !errors.Is(err, ErrMonitorClosed) {
						t.Errorf("unexpected ingest error: %v", err)
					}
					return
				}
			}
		}(int32(f + 1))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_ = m.Races() // must not panic on the released pipeline
}
