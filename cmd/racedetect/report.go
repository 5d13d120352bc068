package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// runReportSchema versions the -json output. Consumers should check it
// before parsing; fields are only ever added within a schema version.
const runReportSchema = "fasttrack/run-report/v1"

// runReport is the machine-readable result of one racedetect invocation
// (the -json output): everything the human-readable output shows —
// races with both access sites when known, instrumentation statistics,
// pipeline health, and the final metrics snapshot — in one stable
// document.
type runReport struct {
	Schema string       `json:"schema"`
	Trace  string       `json:"trace"`
	Stream bool         `json:"stream,omitempty"`
	Tools  []toolReport `json:"tools"`
	// Error is the fault that stopped the run, the message of its exit
	// status 2; a run that reached the end of the trace has none.
	Error string `json:"error,omitempty"`
}

type toolReport struct {
	Tool   string          `json:"tool"`
	Events int64           `json:"events"` // events offered to the pipeline
	Races  []raceReport    `json:"races"`
	Stats  fasttrack.Stats `json:"stats"`
	Health healthReport    `json:"health"`
	// Metrics is the final registry snapshot for this tool's run; its
	// "rr.events.fed" counter equals Events.
	Metrics fasttrack.MetricsSnapshot `json:"metrics"`
}

type raceReport struct {
	Kind    string `json:"kind"`
	Var     uint64 `json:"var"`
	Tid     int32  `json:"tid"`
	PrevTid int32  `json:"prevTid"`
	Index   int    `json:"index"`
	// PrevIndex is -1 when the tool does not track access history.
	PrevIndex int `json:"prevIndex"`
	// Access/PrevAccess render both racing events of a read/write race
	// in trace text form, at fine granularity (PrevAccess needs
	// PrevIndex).
	Access     string `json:"access,omitempty"`
	PrevAccess string `json:"prevAccess,omitempty"`
	// The remaining fields are the provenance evidence (-provenance
	// runs only): clock snapshots of both accesses, the failed
	// happens-before comparison, the racing threads' recent sync
	// operations, and the rendered explanation.
	AccessClock []uint64               `json:"accessClock,omitempty"`
	PrevClock   []uint64               `json:"prevClock,omitempty"`
	PrevEpoch   string                 `json:"prevEpoch,omitempty"`
	FailedCheck string                 `json:"failedCheck,omitempty"`
	SyncChain   []fasttrack.SyncRecord `json:"syncChain,omitempty"`
	Explanation string                 `json:"explanation,omitempty"`
}

// healthReport is client.Health, the wire form of the pipeline health
// (the daemon's results carry it; client.HealthFrom renders a local
// one), under the run report's key for the error: "error", not "err".
// Both convert with healthReport(h).
type healthReport struct {
	Healthy              bool   `json:"healthy"`
	ToolDisabled         bool   `json:"toolDisabled,omitempty"`
	Panics               int64  `json:"panics,omitempty"`
	QuarantinedLocations int    `json:"quarantinedLocations,omitempty"`
	QuarantinedAccesses  int64  `json:"quarantinedAccesses,omitempty"`
	Violations           int64  `json:"violations,omitempty"`
	Repaired             int64  `json:"repaired,omitempty"`
	Dropped              int64  `json:"dropped,omitempty"`
	Synthesized          int64  `json:"synthesized,omitempty"`
	Err                  string `json:"error,omitempty"`
}

// raceReports converts warnings. At fine granularity a read/write
// race's variable is the trace's own, so both accesses render from the
// report alone: a local or remote analysis of one trace gives the same
// strings.
func raceReports(races []fasttrack.Report, fine bool) []raceReport {
	out := make([]raceReport, 0, len(races))
	for _, r := range races {
		rr := raceReport{
			Kind:      r.Kind.String(),
			Var:       r.Var,
			Tid:       r.Tid,
			PrevTid:   r.PrevTid,
			Index:     r.Index,
			PrevIndex: r.PrevIndex,
		}
		if fine {
			rr.Access, rr.PrevAccess = accessStrings(r)
		}
		out = append(out, rr)
	}
	return out
}

// accessStrings renders the racing access and, when the tool recorded
// it, the prior one of a read/write race, as trace events.
func accessStrings(r fasttrack.Report) (access, prev string) {
	var cur, before trace.Kind
	switch r.Kind {
	case fasttrack.WriteWrite:
		cur, before = trace.Write, trace.Write
	case fasttrack.WriteRead:
		cur, before = trace.Read, trace.Write
	case fasttrack.ReadWrite:
		cur, before = trace.Write, trace.Read
	default:
		return "", ""
	}
	access = trace.Event{Kind: cur, Tid: r.Tid, Target: r.Var}.String()
	if r.PrevIndex >= 0 {
		prev = trace.Event{Kind: before, Tid: r.PrevTid, Target: r.Var}.String()
	}
	return access, prev
}

// raceReportsDetailed is raceReports plus the provenance evidence when
// the flight recorder produced it. DetailedTool guarantees details
// mirrors races one-to-one; a length mismatch (details nil, or a
// non-detailed tool) degrades to the plain reports.
func raceReportsDetailed(races []fasttrack.Report, fine bool, details []fasttrack.DetailedReport) []raceReport {
	out := raceReports(races, fine)
	if len(details) != len(out) {
		return out
	}
	for i, d := range details {
		out[i].AccessClock = d.AccessClock
		out[i].PrevClock = d.PrevClock
		out[i].PrevEpoch = d.PrevEpoch
		out[i].FailedCheck = d.FailedCheck
		out[i].SyncChain = d.SyncChain
		out[i].Explanation = d.Explanation
	}
	return out
}

// emitJSON writes the report to path ("" or "-" = stdout), indented and
// newline-terminated.
func emitJSON(rep *runReport, path string) error {
	var w io.Writer = os.Stdout
	if path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// analysis is one tool's finished run as the renderer reads it: a
// daemon's Results, or the same snapshot of a local Monitor
// (client.ResultsOf), which also carries what the wire does not: the
// violation and panic log and the metrics registry.
type analysis struct {
	client.Results
	log     []string
	metrics fasttrack.MetricsSnapshot
}

// render prints each tool's report in order, writes the JSON report
// when asked, puts note on stderr, and returns the exit code: 1 when a
// tool reported races, 2 when the trace was damaged or a dispatcher
// stopped the stream (Health.Err). Every tool checks the same stream, so
// a stop ends the report at the first tool. A stop comes before any
// fault the scan found later, so it is the fault reported: under
// -policy off an id beyond the identifier caps, otherwise a strict
// violation. A run that ends with status 2 names its fault in each
// tool's pipeline line and in the JSON report's error.
func (r request) render(as []analysis, damaged error, note string) int {
	for i, a := range as {
		if a.Health.Err != "" {
			damaged = stopErr(r.feasible(), a.Health.Err)
			as = as[:i+1]
			break
		}
	}
	var stop string
	if damaged != nil {
		stop = damaged.Error()
	}
	var rep *runReport
	if r.jsonOut || r.jsonFile != "" {
		rep = &runReport{Schema: runReportSchema, Trace: r.name, Stream: true, Error: stop}
	}
	w := humanOutput(rep != nil, r.jsonFile)
	exit := 0
	for _, a := range as {
		printReport(w, a.Results, r.stats)
		printDetails(w, a.Detailed)
		printHealth(w, a.Health, a.log, stop)
		if rep != nil {
			rep.Tools = append(rep.Tools, toolReport{
				Tool:    a.Tool,
				Events:  a.Events,
				Races:   raceReportsDetailed(a.Races, r.hello.Gran != "coarse", a.Detailed),
				Stats:   a.Stats,
				Health:  healthReport(a.Health),
				Metrics: a.metrics,
			})
		}
		if len(a.Races) > 0 {
			exit = 1
		}
	}
	fmt.Fprintln(os.Stderr, note)
	if damaged != nil {
		finishJSON(rep, r.jsonFile, 2)
		return reportErr(damaged)
	}
	return finishJSON(rep, r.jsonFile, exit)
}

// stopErr is the fault of a run stopped at an event: the verdict
// ("infeasible trace" when the client checks feasibility, "strict
// validation" when the policy does), then fault, the stopping event's
// error, without its "trace: " package prefix. It reads "infeasible
// trace: event 3 (rel 1 m1): ...". A remote run's fault arrives as a
// string, so the prefix is trimmed from the text.
func stopErr(feasible bool, fault string) error {
	verdict := "strict validation"
	if feasible {
		verdict = "infeasible trace"
	}
	return errors.New(verdict + ": " + strings.TrimPrefix(fault, "trace: "))
}

func printReport(w io.Writer, res client.Results, stats bool) {
	fmt.Fprintf(w, "%s: %d warning(s)\n", res.Tool, len(res.Races))
	for _, r := range res.Races {
		fmt.Fprintf(w, "  %s\n", r)
	}
	if stats {
		st := res.Stats
		fmt.Fprintf(w, "  events=%d reads=%d writes=%d syncs=%d vcAlloc=%d vcOps=%d shadowBytes=%d\n",
			st.Events, st.Reads, st.Writes, st.Syncs, st.VCAlloc, st.VCOp, st.ShadowBytes)
		rr.FprintOpsMix(w, res.Tool, st)
	}
}

// printDetails renders the provenance evidence of each warning, one
// blank-line-separated block per race, indented to match printReport's
// warning lines.
func printDetails(w io.Writer, details []fasttrack.DetailedReport) {
	for _, d := range details {
		fmt.Fprintln(w)
		for _, line := range strings.Split(d.Explanation, "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if len(details) > 0 {
		fmt.Fprintln(w)
	}
}

// printHealth renders the pipeline's degradation snapshot, followed by
// the violation and panic log of a local run (the wire carries none),
// and then stop, the fault that ended the run, if any.
func printHealth(w io.Writer, h client.Health, log []string, stop string) {
	if !h.Healthy {
		fmt.Fprintf(w, "  pipeline: violations=%d repaired=%d dropped=%d synthesized=%d panics=%d quarantined=%d\n",
			h.Violations, h.Repaired, h.Dropped, h.Synthesized, h.Panics, h.QuarantinedLocations)
		for _, l := range log {
			fmt.Fprintf(w, "    %s\n", l)
		}
		if h.ToolDisabled {
			fmt.Fprintln(w, "    tool disabled after exceeding the panic budget")
		}
	}
	switch {
	case stop != "":
		fmt.Fprintf(w, "  pipeline: stopped: %s\n", stop)
	case h.Healthy:
		fmt.Fprintln(w, "  pipeline: healthy")
	}
}

// humanOutput is where the human-readable report goes: stdout, or
// stderr when the JSON report takes stdout, so stdout stays pure JSON.
func humanOutput(jsonWanted bool, jsonFile string) io.Writer {
	if jsonWanted && jsonFile == "" {
		return os.Stderr
	}
	return os.Stdout
}

// finishJSON emits the run report, if any, and returns exit, or the
// error status if the report cannot be written.
func finishJSON(rep *runReport, path string, exit int) int {
	if rep == nil {
		return exit
	}
	if err := emitJSON(rep, path); err != nil {
		return reportErr(fmt.Errorf("writing report: %w", err))
	}
	return exit
}
