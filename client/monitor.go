package client

import (
	"fmt"
	"slices"

	"fasttrack"
	"fasttrack/internal/rr"
)

// defaultSampleRate is the rate of a sampled request that names none,
// neither in its fidelity ("sampled") nor in SampleRate.
const defaultSampleRate = 0.25

// Grant is what NewMonitor made of a handshake: the canonical detector
// name and the fidelity, which holds for the monitor's whole life.
type Grant struct {
	Tool       string
	Fidelity   string  // FidelityFull or FidelitySampled
	SampleRate float64 // 1 for full
}

// Spec renders the granted fidelity as ParseFidelity reads it: "full"
// or "sampled(0.25)".
func (g Grant) Spec() string {
	if g.Fidelity == FidelityFull {
		return g.Fidelity
	}
	return fmt.Sprintf("%s(%.3g)", g.Fidelity, g.SampleRate)
}

// RequestError is NewMonitor's refusal of a handshake. Code is the
// ErrCode a daemon refuses the session with.
type RequestError struct {
	Code string
	Msg  string
}

func (e *RequestError) Error() string { return e.Msg }

// NewMonitor builds the Monitor a handshake asks for: its detector,
// granularity, validation policy, fidelity, provenance and detailed
// reports. racedetect (for each tool of a local run) and racedetectd
// (for each session) build every analysis through it, so a trace
// analyzed locally and on a daemon meets the same pipeline. memBudget
// caps FastTrack's shadow memory (0 = unbounded); a handshake carries
// none. A sampled request's rate is fixed here, for the monitor's whole
// life; a tool that cannot sample is refused. Errors are
// *RequestError.
func NewMonitor(h Handshake, memBudget int64) (*fasttrack.Monitor, Grant, error) {
	g := Grant{Tool: h.Tool, Fidelity: FidelityFull, SampleRate: 1}
	if g.Tool == "" {
		g.Tool = "FastTrack"
	}
	mode, rate, err := ParseFidelity(h.Fidelity)
	if err != nil {
		return nil, Grant{}, badRequest("%v", err)
	}
	if rate == 0 {
		rate = h.SampleRate
	}
	if rate < 0 || rate > 1 {
		return nil, Grant{}, badRequest("sample rate %v out of range (0, 1]", rate)
	}
	hints := fasttrack.Hints{Provenance: h.Provenance, DetailedReports: h.Detailed, MemoryBudget: memBudget}
	if mode == FidelitySampled {
		if rate == 0 {
			rate = defaultSampleRate
		}
		g.Fidelity, g.SampleRate, hints.SampleRate = mode, rate, rate
	}
	policy := fasttrack.PolicyOff
	if h.Policy != "" {
		p, ok := rr.PolicyFromString(h.Policy)
		if !ok {
			return nil, Grant{}, badRequest("unknown validation policy %q (want off, strict, repair, or drop)", h.Policy)
		}
		policy = p
	}
	gran := fasttrack.Fine
	switch h.Gran {
	case "", "fine":
	case "coarse":
		gran = fasttrack.Coarse
	default:
		return nil, Grant{}, badRequest("unknown granularity %q (want fine or coarse)", h.Gran)
	}
	tool, err := fasttrack.NewTool(g.Tool, hints)
	if err != nil {
		code := ErrCodeBadRequest
		if !slices.Contains(fasttrack.ToolNames(), g.Tool) {
			code = ErrCodeUnknownTool
		}
		return nil, Grant{}, &RequestError{Code: code, Msg: err.Error()}
	}
	g.Tool = tool.Name()
	mon := fasttrack.NewMonitor(
		fasttrack.WithTool(tool),
		fasttrack.WithGranularity(gran),
		fasttrack.WithValidation(policy),
	)
	return mon, g, nil
}

func badRequest(format string, args ...any) error {
	return &RequestError{Code: ErrCodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// ResultsOf snapshots a Monitor NewMonitor built into Results: its
// races, with the provenance evidence when provenance is set, its
// statistics, health and detection probability. racedetectd answers
// queries with it and racedetect renders its local runs from it, so a
// trace analyzed either way prints the same report. The caller fills
// in Events and the session fields.
func ResultsOf(mon *fasttrack.Monitor, tool string, provenance bool) Results {
	st := mon.Stats()
	res := Results{
		Tool:                 tool,
		Races:                mon.Races(),
		Stats:                st,
		Health:               HealthFrom(mon.Health()),
		DetectionProbability: st.DetectionProbability(),
	}
	if provenance {
		res.Detailed = mon.DetailedRaces()
	}
	return res
}
