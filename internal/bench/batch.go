package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"fasttrack"
	"fasttrack/trace"
)

// BatchSchema versions the BENCH_batch.json artifact. v2 dropped the
// per-row mode and shards fields along with the sharded sweep.
const BatchSchema = "fasttrack/bench-batch/v2"

// BatchReport is the machine-readable batched-ingestion artifact: the
// throughput of Monitor.IngestBatch across batch sizes against the
// per-event Monitor.Ingest baseline on the same event stream. One
// producer feeds the monitor, so the table isolates the per-event
// lock/dispatch toll that batching amortizes.
type BatchReport struct {
	Schema string     `json:"schema"`
	CPUs   int        `json:"cpus"`
	Events int        `json:"events"`
	Runs   int        `json:"runs"`
	Rows   []BatchRow `json:"rows"`
}

// BatchRow is one batch size. Batch == 0 is the per-event Ingest
// baseline; Speedup is relative to that baseline row.
type BatchRow struct {
	Batch        int     `json:"batch"` // events per IngestBatch; 0 = per-event Ingest
	ElapsedNs    int64   `json:"elapsedNs"`
	EventsPerSec float64 `json:"eventsPerSec"`
	Speedup      float64 `json:"speedup"`
}

// batchWorkload builds the event stream the sweep replays: one thread
// sweeping write/read pairs over a 4096-variable working set, with an
// acquire/release pair every ~1k accesses.
func batchWorkload(events int) []trace.Event {
	const vars = 4096
	out := make([]trace.Event, 0, events)
	for i := 0; len(out) < events; i++ {
		x := uint64(i) % vars
		out = append(out, trace.Wr(1, x), trace.Rd(1, x))
		if i%512 == 511 {
			out = append(out, trace.Acq(1, vars+1), trace.Rel(1, vars+1))
		}
	}
	return out[:events]
}

// batchRun replays the workload through one monitor and times it.
func batchRun(batch int, events []trace.Event) time.Duration {
	m := fasttrack.NewMonitor()
	defer m.Close()
	m.Fork(0, 1)
	t0 := time.Now()
	if batch <= 0 {
		for _, e := range events {
			m.Ingest(e)
		}
	} else {
		for i := 0; i < len(events); i += batch {
			m.IngestBatch(events[i:min(i+batch, len(events))])
		}
	}
	return time.Since(t0)
}

// Batch produces the batched-ingestion throughput table. Nil batchSizes
// defaults to {1, 8, 64, 512, 4096}; totalEvents <= 0 defaults to 400k
// scaled by cfg.Scale with a 50k floor.
func Batch(cfg Config, batchSizes []int, totalEvents int) BatchReport {
	if len(batchSizes) == 0 {
		batchSizes = []int{1, 8, 64, 512, 4096}
	}
	if totalEvents <= 0 {
		totalEvents = int(400_000 * cfg.Scale)
		if totalEvents < 50_000 {
			totalEvents = 50_000
		}
	}
	events := batchWorkload(totalEvents)
	rep := BatchReport{
		Schema: BatchSchema,
		CPUs:   runtime.GOMAXPROCS(0),
		Events: len(events),
		Runs:   cfg.runs(),
	}
	var baseline float64
	for _, batch := range append([]int{0}, batchSizes...) {
		best := time.Duration(0)
		for r := 0; r < cfg.runs(); r++ {
			el := batchRun(batch, events)
			if best == 0 || el < best {
				best = el
			}
		}
		row := BatchRow{
			Batch:        batch,
			ElapsedNs:    best.Nanoseconds(),
			EventsPerSec: float64(len(events)) / best.Seconds(),
		}
		if batch == 0 {
			baseline = row.EventsPerSec
		}
		if baseline > 0 {
			row.Speedup = row.EventsPerSec / baseline
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// WriteBatchJSON writes the artifact as indented JSON.
func WriteBatchJSON(w io.Writer, rep BatchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FprintBatch renders the batched-ingestion throughput table.
func FprintBatch(w io.Writer, rep BatchReport) {
	fmt.Fprintf(w, "Batched ingestion throughput, %d events, best of %d, %d CPU(s)\n\n",
		rep.Events, rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Batch\tms\tevents/sec\tvs per-event")
	for _, r := range rep.Rows {
		batch := fmt.Sprint(r.Batch)
		if r.Batch == 0 {
			batch = "per-event"
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.2fM\t%.2fx\n",
			batch,
			float64(r.ElapsedNs)/1e6, r.EventsPerSec/1e6, r.Speedup)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(single producer; the table isolates the per-event lock and dispatch")
	fmt.Fprintln(w, " toll that IngestBatch amortizes — one lock acquisition per batch")
	fmt.Fprintln(w, " instead of per event)")
}
