package main

import (
	"encoding/json"
	"io"
	"os"

	"fasttrack"
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
	UnheldReleases       int64  `json:"unheldReleases,omitempty"`
	Error                string `json:"error,omitempty"`
}

// raceReports converts warnings. At fine granularity a read/write
// race's variable is the trace's own, so both accesses render from the
// report alone: a streamed, resident or remote analysis of one trace
// gives the same strings.
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

func healthJSON(h fasttrack.Health) healthReport {
	hr := healthReport{
		Healthy:              h.Healthy,
		ToolDisabled:         h.ToolDisabled,
		Panics:               h.Panics,
		QuarantinedLocations: h.QuarantinedLocations,
		QuarantinedAccesses:  h.QuarantinedAccesses,
		Violations:           h.Violations,
		Repaired:             h.Repaired,
		Dropped:              h.Dropped,
		Synthesized:          h.Synthesized,
		UnheldReleases:       h.UnheldReleases,
	}
	if h.Err != nil {
		hr.Error = h.Err.Error()
	}
	return hr
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
