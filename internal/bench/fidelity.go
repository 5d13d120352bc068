package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"fasttrack/internal/core"
	"fasttrack/trace"
)

// FidelityReport is the machine-readable sampling-tier artifact: the
// per-event throughput of the FastTrack detector across sampling rates
// on a vector-clock-heavy workload, with the detection probability each
// rate buys. It is the cost/coverage curve of the sampled(p) fidelity
// mode, timed on the detector alone: the CI gate on it keeps sampling
// a real lever on detector cost. On the daemon path the detector is a
// small share of an event's cost, so a sampled session there is not
// much faster than a full one.
type FidelityReport struct {
	Header
	Threads int           `json:"threads"`
	Vars    int           `json:"vars"`
	Events  int           `json:"events"`
	Rows    []FidelityRow `json:"rows"`
}

// FidelityRow is one sampling rate. Speedup is relative to the rate-1.0
// row; DetectionProbability is the analyzed fraction of offered
// accesses as reported by the detector itself.
type FidelityRow struct {
	Rate                 float64 `json:"rate"`
	ElapsedNs            int64   `json:"elapsedNs"`
	EventsPerSec         float64 `json:"eventsPerSec"`
	Speedup              float64 `json:"speedup"`
	DetectionProbability float64 `json:"detectionProbability"`
	Races                int     `json:"races"`
}

// fidelityWorkload builds a race-free, vector-clock-heavy stream. Every
// phase, each variable is read by two rotating threads — driving it
// through the read-exclusive → read-shared transition, which allocates
// and populates an O(threads) read vector clock — then a barrier orders
// the phase and one thread rewrites the region (the O(threads)
// write-shared comparison), collapsing every variable back to an
// exclusive epoch so the next phase pays the transitions again. Two
// reads and one write per variable per phase keeps the O(threads) work
// per access maximal; the region is large so the unskippable barriers
// (sync is never sampled) are amortized to noise. This is FastTrack's
// most expensive steady state — the workload sampling has the most to
// win on — while the phase ordering keeps it race-free so the timed
// runs do not degenerate into flagged-variable short-circuits.
func fidelityWorkload(threads, vars, events int) []trace.Event {
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

// fidelityRun replays the workload through a fresh detector at one
// sampling rate and times the event loop.
func fidelityRun(threads int, rate float64, events []trace.Event) (time.Duration, *core.Detector) {
	d := core.New(threads+1, 0)
	d.SetSamplingRate(rate)
	t0 := time.Now()
	for i, e := range events {
		d.HandleEvent(i, e)
	}
	return time.Since(t0), d
}

// Fidelity produces the sampling-rate throughput table. Nil rates
// defaults to {1, 0.5, 0.25, 0.1, 0.01, 0}; threads <= 0 defaults to
// 256 (the O(threads) vector-clock transitions are the cost sampling
// avoids, so the stress population is deliberately large); totalEvents
// <= 0 defaults to 300k scaled by cfg.Scale with a 50k floor.
func Fidelity(cfg Config, rates []float64, threads, totalEvents int) FidelityReport {
	if len(rates) == 0 {
		rates = []float64{1, 0.5, 0.25, 0.1, 0.01, 0}
	}
	if threads <= 0 {
		threads = 256
	}
	if totalEvents <= 0 {
		totalEvents = int(300_000 * cfg.Scale)
		if totalEvents < 50_000 {
			totalEvents = 50_000
		}
	}
	const vars = 8192
	events := fidelityWorkload(threads, vars, totalEvents)
	rep := FidelityReport{
		Header:  newHeader("fidelity", cfg),
		Threads: threads,
		Vars:    vars,
		Events:  len(events),
	}
	var baseline float64
	for _, rate := range rates {
		var (
			best time.Duration
			last *core.Detector
		)
		for r := 0; r < cfg.runs(); r++ {
			el, d := fidelityRun(threads, rate, events)
			if best == 0 || el < best {
				best = el
			}
			last = d
		}
		st := last.Stats()
		row := FidelityRow{
			Rate:                 rate,
			ElapsedNs:            best.Nanoseconds(),
			EventsPerSec:         float64(len(events)) / best.Seconds(),
			DetectionProbability: st.DetectionProbability(),
			Races:                len(last.Races()),
		}
		if rate == 1 {
			baseline = row.EventsPerSec
		}
		if baseline > 0 {
			row.Speedup = row.EventsPerSec / baseline
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Check gates the artifact: every default rate present with positive
// timings, each row's detection probability within 0.05 of its rate,
// and sampled(0.1) at least 5x full-fidelity throughput, so the sampled
// rung keeps paying for itself. The gate is single-session, so it holds
// on any core count.
func (rep FidelityReport) Check() error {
	var g gates
	g.header(rep.Header, "fidelity")
	g.need(rep.Events > 0, "no events")
	rows := map[float64]FidelityRow{}
	for _, r := range rep.Rows {
		rows[r.Rate] = r
		g.need(r.ElapsedNs > 0 && r.EventsPerSec > 0, "rate %g: non-positive timing %+v", r.Rate, r)
		g.need(math.Abs(r.DetectionProbability-r.Rate) < 0.05,
			"rate %g: detection probability %.3f, want within 0.05 of the rate", r.Rate, r.DetectionProbability)
	}
	for _, rate := range []float64{1, 0.5, 0.25, 0.1, 0.01, 0} {
		_, ok := rows[rate]
		g.need(ok, "no rate-%g row", rate)
	}
	g.need(rows[0.1].Speedup >= 5.0, "sampled(0.1) speedup %.2fx, want >= 5x", rows[0.1].Speedup)
	return g.err()
}

// FprintFidelity renders the sampling-rate throughput table.
func FprintFidelity(w io.Writer, rep FidelityReport) {
	fmt.Fprintf(w, "Sampling-tier throughput, %d events, %d threads, %d vars, best of %d, %d CPU(s)\n\n",
		rep.Events, rep.Threads, rep.Vars, rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Rate\tms\tevents/sec\tvs full\tdetection prob\traces")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%.3g\t%.1f\t%.2fM\t%.2fx\t%.3f\t%d\n",
			r.Rate, float64(r.ElapsedNs)/1e6, r.EventsPerSec/1e6,
			r.Speedup, r.DetectionProbability, r.Races)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(read-shared heavy, race-free workload; a sampled-out variable costs")
	fmt.Fprintln(w, " one hash and a counter, so the rate is also roughly the fraction of")
	fmt.Fprintln(w, " full-fidelity cost paid — detection probability is what it buys)")
}
