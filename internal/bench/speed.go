package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/detectors/djit"
	"fasttrack/trace"
)

// SpeedReport is the machine-readable raw-speed artifact: serial
// per-event throughput of FastTrack against DJIT+, the paper's precise
// vector-clock competitor, measured in the same process on the same
// event streams. The per-workload Speedup columns and their geometric
// mean are therefore host-independent ratios.
type SpeedReport struct {
	Header
	Rows           []SpeedRow `json:"rows"`
	GeomeanSpeedup float64    `json:"geomeanSpeedup"`
}

// SpeedRow is one workload's measurement, best-of-runs per side.
// Speedup is DJIT+'s per-event time over FastTrack's. Races and
// DJITRaces are the two detectors' race counts; both are precise, so
// they must agree, or the ratio compares different work.
type SpeedRow struct {
	Workload       string  `json:"workload"`
	Events         int     `json:"events"`
	DJITNsPerEvent float64 `json:"djitNsPerEvent"`
	NsPerEvent     float64 `json:"nsPerEvent"`
	Speedup        float64 `json:"speedup"`
	Races          int     `json:"races"`
	DJITRaces      int     `json:"djitRaces"`
}

// speedWorkloads builds the event streams. Each models a regime of the
// paper's benchmark suite at realistic scale: millions of live shadow
// locations, field-clustered accesses (rr.FieldsPerObject contiguous
// ids per object), and synchronization at the low trace frequencies
// Table 1 reports (accesses are >96% of events) rather than as a
// synthetic sync-only stream. At this scale shadow memory traffic —
// bytes moved per access — dominates per-event cost, which is exactly
// where FastTrack's epochs and DJIT+'s per-variable vector clocks
// differ; a hot-L1 microloop would instead measure the shared dispatch
// overhead both detectors pay identically.
//
// Each stream is generated only when its row is measured, so at most one
// (up to 12M events) is live at a time.
func speedWorkloads(scale float64) []speedWorkload {
	n := func(base int) int {
		k := int(float64(base) * scale)
		if k < base/10 {
			k = base / 10
		}
		return k
	}
	const fields = 8 // rr.FieldsPerObject: ids cluster as real objects' fields do
	var out []speedWorkload
	add := func(name string, gen func() []trace.Event) {
		out = append(out, speedWorkload{name, gen})
	}

	// same-epoch: one thread re-reading a large object graph between
	// synchronizations — the >96% fast-path regime at a size where the
	// read epochs' density (8 per cache line, against a vector clock
	// header and backing array per DJIT+ variable) decides throughput.
	// Pass 1 writes every field (first touch), pass 2 re-reads
	// (exclusive), passes 3-4 hit [FT READ SAME EPOCH] on every access
	// and touch only r[].
	add("same-epoch", func() []trace.Event {
		objs := n(250_000)
		evs := make([]trace.Event, 0, 6*objs*fields)
		for o := 0; o < objs; o++ {
			for f := 0; f < fields; f++ {
				evs = append(evs, trace.Wr(1, uint64(o*fields+f)))
			}
		}
		for pass := 0; pass < 5; pass++ {
			for o := 0; o < objs; o++ {
				for f := 0; f < fields; f++ {
					evs = append(evs, trace.Rd(1, uint64(o*fields+f)))
				}
			}
		}
		return evs
	})

	// sweep: a wide space re-walked with the epoch advanced between
	// passes, so every access takes the exclusive slow rules — the
	// regime that measures the full R/W-epoch update cost at scale
	// (object allocation churn, init-then-scan phases).
	add("sweep", func() []trace.Event {
		vars := n(800_000)
		evs := make([]trace.Event, 0, 3*(2*vars+1))
		for pass := 0; pass < 3; pass++ {
			evs = append(evs, trace.Rel(1, 1<<20))
			for x := 0; x < vars; x++ {
				evs = append(evs, trace.Wr(1, uint64(x)), trace.Rd(1, uint64(x)))
			}
		}
		return evs
	})

	// read-shared: four threads over a large read-mostly table
	// (promoted read histories), the [FT READ SHARED] regime: one
	// in-place vector-clock component store per access. Readers' clocks
	// advance between rounds so the stores are not idempotent.
	add("read-shared", func() []trace.Event {
		vars := n(500_000)
		evs := make([]trace.Event, 0, vars+8*vars+64)
		evs = append(evs, trace.ForkOf(0, 1), trace.ForkOf(0, 2), trace.ForkOf(0, 3), trace.ForkOf(0, 4))
		for x := 0; x < vars; x++ {
			evs = append(evs, trace.Wr(0, uint64(x)))
		}
		evs = append(evs, trace.Rel(0, 9))
		for t := int32(1); t <= 4; t++ {
			evs = append(evs, trace.Acq(t, 9))
		}
		for round := 0; round < 2; round++ {
			for t := int32(1); t <= 4; t++ {
				for x := 0; x < vars; x++ {
					evs = append(evs, trace.Rd(t, uint64(x)))
				}
				// Advance the reader's epoch so next round's component
				// stores carry new clocks.
				evs = append(evs, trace.Rel(t, uint64(20+t)))
			}
		}
		return evs
	})

	// first-touch: every access hits a fresh location — the shadow
	// growth regime of allocation-heavy phases. DJIT+ appends a 56-byte
	// record per variable and allocates its write vector clock (pointers
	// the collector scans on every cycle); FastTrack appends two epochs
	// into pointer-free arrays.
	add("first-touch", func() []trace.Event {
		vars := n(3_000_000)
		evs := make([]trace.Event, 0, vars)
		for x := 0; x < vars; x++ {
			evs = append(evs, trace.Wr(1, uint64(x)))
		}
		return evs
	})

	// mixed: two threads working disjoint object ranges with
	// lock-protected phases — the end-to-end mix of Table 1: ~45%
	// same-epoch hits, ~55% exclusive updates, synchronization at under
	// 1% of events, over a shadow space too large for caches to hide
	// the layout.
	add("mixed", func() []trace.Event {
		objsPer := n(100_000)
		evs := make([]trace.Event, 0, 2*2*objsPer*(fields+1)+4*objsPer/16)
		evs = append(evs, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < objsPer; j++ {
				for t := int32(1); t <= 2; t++ {
					base := uint64((int(t-1)*objsPer + j) * fields)
					evs = append(evs,
						trace.Wr(t, base), trace.Rd(t, base+1), trace.Rd(t, base+2), trace.Rd(t, base+3),
						trace.Rd(t, base), trace.Rd(t, base+1), trace.Rd(t, base+2), trace.Rd(t, base+3),
						trace.Rd(t, base))
					if j%64 == 63 {
						m := uint64(4096 + (j/64)%1024)
						evs = append(evs, trace.Acq(t, m), trace.Rel(t, m))
					}
				}
			}
		}
		return evs
	})
	return out
}

// speedWorkload is one named stream, generated on demand.
type speedWorkload struct {
	name string
	gen  func() []trace.Event
}

// speedTimeDJIT and speedTimeFastTrack replay evs through a fresh
// detector with direct concrete-type calls (no interface or method
// value indirection, which would add identical overhead to both sides
// and dilute the measured ratio) and return the elapsed time and, read
// after the clock stops, the race count.
func speedTimeDJIT(evs []trace.Event) (time.Duration, int) {
	d := djit.New(0, 0)
	t0 := time.Now()
	for i, e := range evs {
		d.HandleEvent(i, e)
	}
	return time.Since(t0), len(d.Races())
}

func speedTimeFastTrack(evs []trace.Event) (time.Duration, int) {
	d := core.New(0, 0)
	t0 := time.Now()
	for i, e := range evs {
		d.HandleEvent(i, e)
	}
	return time.Since(t0), len(d.Races())
}

// Speed produces the raw-speed table. Both detectors are concrete types
// fed through direct loops (no Monitor, no interface dispatch), so the
// ratio isolates the analysis itself: FastTrack's epochs against
// DJIT+'s full vector clocks.
func Speed(cfg Config) SpeedReport {
	rep := SpeedReport{Header: newHeader("speed", cfg)}
	for _, w := range speedWorkloads(cfg.Scale) {
		events := w.gen()
		best := func(once func([]trace.Event) (time.Duration, int)) (time.Duration, int) {
			var bestEl time.Duration
			var races int
			for r := 0; r < cfg.runs(); r++ {
				el, n := once(events)
				if bestEl == 0 || el < bestEl {
					bestEl = el
				}
				races = n
			}
			return bestEl, races
		}
		djEl, djRaces := best(speedTimeDJIT)
		ftEl, ftRaces := best(speedTimeFastTrack)
		row := SpeedRow{
			Workload:       w.name,
			Events:         len(events),
			DJITNsPerEvent: float64(djEl.Nanoseconds()) / float64(len(events)),
			NsPerEvent:     float64(ftEl.Nanoseconds()) / float64(len(events)),
			Races:          ftRaces,
			DJITRaces:      djRaces,
		}
		row.Speedup = row.DJITNsPerEvent / row.NsPerEvent
		rep.Rows = append(rep.Rows, row)
	}
	g := 1.0
	for _, r := range rep.Rows {
		g *= r.Speedup
	}
	rep.GeomeanSpeedup = math.Pow(g, 1/float64(len(rep.Rows)))
	return rep
}

// speedGate is the minimum FastTrack-over-DJIT+ geomean: about 80% of
// the lowest (3.04x) of six full-scale runs on a shared 2-CPU host,
// which spread 3.04-3.55x. The ratio is same-process and best-of-runs;
// a drop below the gate means a hot-path regression, not noise. It
// holds only at full scale: smaller streams fit in cache and the ratio
// collapses into shared dispatch overhead.
const speedGate = 2.4

// Check gates the artifact: all five workloads present with positive
// timings, the two precise detectors agreeing on every race count, and
// the geomean speedup at or above speedGate.
func (rep SpeedReport) Check() error {
	var g gates
	g.header(rep.Header, "speed")
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		seen[r.Workload] = true
		g.need(r.Events > 0 && r.DJITNsPerEvent > 0 && r.NsPerEvent > 0, "%s: non-positive measurement %+v", r.Workload, r)
		g.need(r.Races == r.DJITRaces, "%s: FastTrack reports %d races, DJIT+ %d", r.Workload, r.Races, r.DJITRaces)
	}
	for _, w := range []string{"same-epoch", "sweep", "read-shared", "first-touch", "mixed"} {
		g.need(seen[w], "no %s row", w)
	}
	g.need(rep.GeomeanSpeedup >= speedGate, "geomean speedup %.2fx, want >= %.2fx", rep.GeomeanSpeedup, speedGate)
	return g.err()
}

// FprintSpeed renders the raw-speed table.
func FprintSpeed(w io.Writer, rep SpeedReport) {
	fmt.Fprintf(w, "Serial per-event throughput, FastTrack vs DJIT+, best of %d, %d CPU(s)\n\n",
		rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tEvents\tDJIT+ ns/ev\tns/ev\tspeedup\traces")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2fx\t%d\n",
			r.Workload, r.Events, r.DJITNsPerEvent, r.NsPerEvent, r.Speedup, r.Races)
	}
	tw.Flush()
	fmt.Fprintf(w, "\ngeomean speedup: %.2fx\n", rep.GeomeanSpeedup)
	fmt.Fprintln(w, "(same process, same streams: the ratio is FastTrack's epochs against")
	fmt.Fprintln(w, " DJIT+'s full vector clocks, over the struct-of-arrays shadow layout")
	fmt.Fprintln(w, " of DESIGN.md §13)")
}
