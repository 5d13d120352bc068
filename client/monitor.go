package client

import (
	"fmt"

	"fasttrack"
	"fasttrack/internal/rr"
)

// RequestError is NewMonitor's refusal of a handshake. Code is the
// ErrCode a daemon refuses the session with.
type RequestError struct {
	Code string
	Msg  string
}

func (e *RequestError) Error() string { return e.Msg }

// NewMonitor builds the Monitor a handshake asks for: its detector,
// granularity, validation policy, provenance and detailed reports, and
// returns it with the detector's canonical name. racedetect (for each
// tool of a local run) and racedetectd (for each session) build every
// analysis through it, so a trace analyzed locally and on a daemon
// meets the same pipeline. memBudget caps FastTrack's shadow memory
// (0 = unbounded); a handshake carries none. Errors are *RequestError.
func NewMonitor(h Handshake, memBudget int64) (*fasttrack.Monitor, string, error) {
	name := h.Tool
	if name == "" {
		name = "FastTrack"
	}
	policy := fasttrack.PolicyOff
	if h.Policy != "" {
		p, ok := rr.PolicyFromString(h.Policy)
		if !ok {
			return nil, "", badRequest("unknown validation policy %q (want off, strict, repair, or drop)", h.Policy)
		}
		policy = p
	}
	gran := fasttrack.Fine
	switch h.Gran {
	case "", "fine":
	case "coarse":
		gran = fasttrack.Coarse
	default:
		return nil, "", badRequest("unknown granularity %q (want fine or coarse)", h.Gran)
	}
	hints := fasttrack.Hints{Provenance: h.Provenance, DetailedReports: h.Detailed, MemoryBudget: memBudget}
	tool, err := fasttrack.NewTool(name, hints)
	if err != nil {
		return nil, "", &RequestError{Code: ErrCodeUnknownTool, Msg: err.Error()}
	}
	mon := fasttrack.NewMonitor(
		fasttrack.WithTool(tool),
		fasttrack.WithGranularity(gran),
		fasttrack.WithValidation(policy),
	)
	return mon, tool.Name(), nil
}

func badRequest(format string, args ...any) error {
	return &RequestError{Code: ErrCodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// ResultsOf snapshots a Monitor NewMonitor built into Results: its
// races, with the provenance evidence when provenance is set, its
// statistics and health. racedetectd answers
// queries with it and racedetect renders its local runs from it, so a
// trace analyzed either way prints the same report. The caller fills
// in Events and the session fields.
func ResultsOf(mon *fasttrack.Monitor, tool string, provenance bool) Results {
	res := Results{
		Tool:   tool,
		Races:  mon.Races(),
		Stats:  mon.Stats(),
		Health: HealthFrom(mon.Health()),
	}
	if provenance {
		res.Detailed = mon.DetailedRaces()
	}
	return res
}
