package core

import (
	"runtime"
	"testing"

	"fasttrack/trace"
)

// liveBytes measures the live-heap growth attributable to f: GC to a
// quiescent baseline, run f, GC again, and diff HeapAlloc. Good to a few
// kilobytes, which is plenty against the megabytes the detectors below
// allocate.
func liveBytes(f func()) int64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}

// TestFootprintTracksMeasuredAllocation is the regression test for the
// shadow-accounting bug: footprint() used to charge 24 bytes per
// variable against an actual cost of ~48, and ignored the detailed-mode
// index tables entirely, so Stats.ShadowBytes read about half the real
// footprint. The accounting must now stay within a factor of two
// of the live heap the shadow state actually pins (the slack covers
// allocator rounding and growth headroom), in both directions.
func TestFootprintTracksMeasuredAllocation(t *testing.T) {
	const nvars = 200_000
	var d *Detector
	measured := liveBytes(func() {
		d = New(0, nvars)
		i := 0
		for x := 0; x < nvars; x++ {
			d.HandleEvent(i, trace.Wr(0, uint64(x)))
			i++
		}
		// A second thread's reads promote a slice of the space to
		// read-shared, so the store's clocks are in the measurement too.
		d.HandleEvent(i, trace.ForkOf(0, 1))
		i++
		for x := 0; x < nvars/10; x++ {
			d.HandleEvent(i, trace.Rd(1, uint64(x)))
			i++
		}
	})
	got := d.footprint()
	if got < measured/2 || got > measured*2 {
		t.Errorf("footprint() = %d bytes, measured live growth %d: accounting off by more than 2x", got, measured)
	}
	runtime.KeepAlive(d)
}

// TestFootprintCountsDetailedTables: the detailed-mode last-access index
// tables (16 bytes per variable) were previously invisible to
// Stats.ShadowBytes. Enabling detailed reports must now raise the accounted
// footprint by at least that much.
func TestFootprintCountsDetailedTables(t *testing.T) {
	const nvars = 50_000
	feed := func(d *Detector) {
		for x := 0; x < nvars; x++ {
			d.HandleEvent(x, trace.Wr(0, uint64(x)))
		}
	}
	plain := New(0, nvars)
	feed(plain)
	detailed := New(0, nvars)
	detailed.EnableDetailedReports()
	feed(detailed)
	delta := detailed.footprint() - plain.footprint()
	if want := int64(16 * nvars); delta < want {
		t.Errorf("detailed-mode footprint delta = %d bytes over %d vars, want >= %d (two index words per var)",
			delta, nvars, want)
	}
}
