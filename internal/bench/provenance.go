package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"fasttrack/internal/core"
	"fasttrack/trace"
)

// ProvenanceReport is the machine-readable flight-recorder artifact:
// FastTrack's per-event throughput with provenance recording off and on,
// across workload mixes chosen to stress each recorder cost (the sync
// ring push, the last-access clock snapshot, the read-shared snapshot
// table). The CI gate on Overhead is what keeps "explainable races" an
// always-affordable opt-in rather than a debugging-build luxury.
type ProvenanceReport struct {
	Header
	Rows []ProvenanceRow `json:"rows"`
}

// ProvenanceRow compares one workload's throughput with the recorder off
// and on. Overhead is the per-event cost ratio (enabled time over
// baseline time, ≥ 1 in the absence of noise).
type ProvenanceRow struct {
	Workload         string  `json:"workload"`
	Events           int     `json:"events"`
	BaseNs           int64   `json:"baseNs"`
	BaseEventsPerSec float64 `json:"baseEventsPerSec"`
	ProvNs           int64   `json:"provNs"`
	ProvEventsPerSec float64 `json:"provEventsPerSec"`
	Overhead         float64 `json:"overhead"`
}

// provenanceWorkloads builds the mixes the comparison sweeps. Each is
// race-free so the timed loop never degenerates into flagged-variable
// short-circuits (a reported race stops analysis of that variable, which
// would let the enabled run do less work than the baseline).
func provenanceWorkloads(events int) []struct {
	name string
	tr   []trace.Event
} {
	// epoch-heavy: single-thread read/write sweeps, the same-epoch fast
	// path the paper centers on. The recorder skips redundant accesses,
	// so this bounds the overhead of the "is this access new?" check
	// itself on the cheapest baseline.
	epoch := batchWorkload(events)

	// sync-heavy: two threads trading a lock around tiny critical
	// sections — every third event pushes onto a provenance sync ring,
	// the recorder's unskippable cost.
	sync := make([]trace.Event, 0, events)
	sync = append(sync, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
	for i := 0; len(sync) < events; i++ {
		t := int32(1 + i%2)
		m := uint64(9000 + i%4)
		sync = append(sync, trace.Acq(t, m), trace.Wr(t, uint64(i%512)), trace.Rel(t, m))
	}

	// shared-heavy: rotating readers force read-shared vector clocks and
	// barrier-ordered rewrites collapse them again, so most accesses are
	// non-redundant and the recorder snapshots a clock for each.
	shared := sharedWorkload(8, 2048, events)

	return []struct {
		name string
		tr   []trace.Event
	}{
		{"epoch-heavy", epoch},
		{"sync-heavy", sync[:events]},
		{"shared-heavy", shared},
	}
}

// provenanceRun replays the workload through a fresh detector, with or
// without the flight recorder, and times the event loop.
func provenanceRun(tr []trace.Event, provenance bool) time.Duration {
	d := core.New(0, 0)
	if provenance {
		d.EnableProvenance()
	}
	t0 := time.Now()
	for i, e := range tr {
		d.HandleEvent(i, e)
	}
	return time.Since(t0)
}

// Provenance produces the recorder-overhead table. totalEvents <= 0
// defaults to 300k scaled by cfg.Scale with a 50k floor.
func Provenance(cfg Config, totalEvents int) ProvenanceReport {
	if totalEvents <= 0 {
		totalEvents = int(300_000 * cfg.Scale)
		if totalEvents < 50_000 {
			totalEvents = 50_000
		}
	}
	rep := ProvenanceReport{Header: newHeader("provenance", cfg)}
	for _, w := range provenanceWorkloads(totalEvents) {
		var base, prov time.Duration
		// Alternate the two modes within each repetition so cache and
		// frequency drift hit both sides equally.
		for r := 0; r < cfg.runs(); r++ {
			if el := provenanceRun(w.tr, false); base == 0 || el < base {
				base = el
			}
			if el := provenanceRun(w.tr, true); prov == 0 || el < prov {
				prov = el
			}
		}
		rep.Rows = append(rep.Rows, ProvenanceRow{
			Workload:         w.name,
			Events:           len(w.tr),
			BaseNs:           base.Nanoseconds(),
			BaseEventsPerSec: float64(len(w.tr)) / base.Seconds(),
			ProvNs:           prov.Nanoseconds(),
			ProvEventsPerSec: float64(len(w.tr)) / prov.Seconds(),
			Overhead:         float64(prov.Nanoseconds()) / float64(base.Nanoseconds()),
		})
	}
	return rep
}

// Check gates the artifact: all three mixes present with positive
// timings and an overhead of at most 2.0x on each. The budget is 1.5x;
// the gate allows 2.0x to absorb shared-runner noise, which still
// catches the accidental-copy regressions the table guards against.
func (rep ProvenanceReport) Check() error {
	var g gates
	g.header(rep.Header, "provenance")
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		seen[r.Workload] = true
		g.need(r.Events > 0 && r.BaseNs > 0 && r.ProvNs > 0 && r.Overhead > 0,
			"%s: non-positive measurement %+v", r.Workload, r)
		g.need(r.Overhead <= 2.0, "%s: overhead %.2fx, want <= 2.0x", r.Workload, r.Overhead)
	}
	for _, w := range []string{"epoch-heavy", "sync-heavy", "shared-heavy"} {
		g.need(seen[w], "no %s row", w)
	}
	return g.err()
}

// FprintProvenance renders the recorder-overhead table.
func FprintProvenance(w io.Writer, rep ProvenanceReport) {
	fmt.Fprintf(w, "Provenance flight-recorder overhead, best of %d, %d CPU(s)\n\n",
		rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tevents\toff ms\toff ev/s\ton ms\ton ev/s\toverhead")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.2fM\t%.1f\t%.2fM\t%.2fx\n",
			r.Workload, r.Events,
			float64(r.BaseNs)/1e6, r.BaseEventsPerSec/1e6,
			float64(r.ProvNs)/1e6, r.ProvEventsPerSec/1e6, r.Overhead)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(the recorder pays a sync-ring push per synchronization operation and")
	fmt.Fprintln(w, " one clock snapshot per non-redundant access; same-epoch hits skip it,")
	fmt.Fprintln(w, " so the epoch-heavy row is the relative worst case on the cheapest path)")
}

// sharedWorkload builds a race-free, vector-clock-heavy stream. Every
// phase, each variable is read by two rotating threads — driving it
// through the read-exclusive → read-shared transition, which allocates
// and populates an O(threads) read vector clock — then a barrier orders
// the phase and one thread rewrites the region (the O(threads)
// write-shared comparison), collapsing every variable back to an
// exclusive epoch so the next phase pays the transitions again. Two
// reads and one write per variable per phase keeps the O(threads) work
// per access maximal; the region is large so the barriers are amortized
// to noise. This is FastTrack's most expensive steady state, while the
// phase ordering keeps it race-free so the timed runs do not degenerate
// into flagged-variable short-circuits.
func sharedWorkload(threads, vars, events int) []trace.Event {
	out := make([]trace.Event, 0, events+4*vars)
	tids := make([]int32, threads)
	for i := range tids {
		tids[i] = int32(i + 1)
		out = append(out, trace.ForkOf(0, tids[i]))
	}
	const barrierID = 1 << 40 // clear of the variable region
	for phase := 0; len(out) < events; phase++ {
		for v := 0; v < vars; v++ {
			out = append(out,
				trace.Rd(tids[(phase+v)%threads], uint64(v)),
				trace.Rd(tids[(phase+v+1)%threads], uint64(v)))
		}
		out = append(out, trace.Barrier(barrierID, tids...))
		for v := 0; v < vars; v++ {
			out = append(out, trace.Wr(tids[phase%threads], uint64(v)))
		}
		out = append(out, trace.Barrier(barrierID, tids...))
	}
	return out
}
