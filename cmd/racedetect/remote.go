package main

import (
	"fmt"
	"io"
	"os"

	"fasttrack/client"
	"fasttrack/trace"
)

// runRemote streams the trace read from in to a racedetectd daemon
// instead of analyzing it in-process, event by event as it decodes, and
// renders the session's final report in exactly the local format
// (so local and remote runs diff clean); the transport note goes to
// stderr. name is the trace's name in the JSON report. Returns the
// process exit code.
func runRemote(in io.Reader, name, addr, toolName, gran, policyName, fidelity string, provenance, traceWire, jsonOut bool, jsonFile string) int {
	jsonWanted := jsonOut || jsonFile != ""

	opts := []client.Option{
		client.WithTool(toolName),
		client.WithGranularity(gran),
	}
	if jsonWanted && toolName == "FastTrack" {
		// Same gate as the local path: JSON FastTrack reports carry the
		// prior access's event index, so local and remote race lists for
		// the same trace diff clean.
		opts = append(opts, client.WithDetailedReports())
	}
	// Under -policy off the client checks feasibility, as the local path
	// does; a validating policy is the daemon's to apply.
	feasible := policyName == "" || policyName == "off"
	if !feasible {
		opts = append(opts, client.WithValidation(policyName))
	}
	if fidelity != "" {
		opts = append(opts, client.WithFidelity(fidelity))
	}
	if provenance {
		opts = append(opts, client.WithProvenance())
	}
	if traceWire {
		opts = append(opts, client.WithTracing())
	}
	sess, err := client.Dial(addr, opts...)
	if err != nil {
		return reportErr(err)
	}
	if err := streamTo(sess, in, feasible); err != nil {
		sess.Close()
		return reportErr(err)
	}
	if err := sess.Close(); err != nil {
		return reportErr(fmt.Errorf("closing session: %w", err))
	}
	res, err := sess.Results()
	if err != nil {
		return reportErr(err)
	}
	// A strict violation stopped the daemon's analysis at the bad event.
	if res.Health.Err != "" {
		return reportErr(fmt.Errorf("strict validation: %s", res.Health.Err))
	}

	humanOut := humanOutput(jsonWanted, jsonFile)

	fmt.Fprintf(humanOut, "%s: %d warning(s)\n", res.Tool, len(res.Races))
	for _, r := range res.Races {
		fmt.Fprintf(humanOut, "  %s\n", r)
	}
	printDetails(humanOut, res.Detailed)
	// A sampled session analyzed only a fraction of the offered
	// accesses; qualify the verdict.
	if res.DetectionProbability > 0 && res.DetectionProbability < 1 {
		fmt.Fprintf(humanOut, "  sampled analysis: detection probability %.3f\n", res.DetectionProbability)
	}
	if jsonWanted {
		rep := &runReport{Schema: runReportSchema, Trace: name, Tools: []toolReport{{
			Tool:   res.Tool,
			Events: res.Events,
			Races:  raceReportsDetailed(res.Races, gran == "fine", res.Detailed),
			Stats:  res.Stats,
			Health: healthReport(res.Health),
		}}}
		if err := emitJSON(rep, jsonFile); err != nil {
			return reportErr(err)
		}
	}
	fmt.Fprintf(os.Stderr, "racedetect: %d events analyzed remotely (session %s on %s)\n",
		res.Events, res.SessionID, sess.Addr())
	if len(res.Races) > 0 {
		return 1
	}
	return 0
}

// streamTo decodes the trace from in and writes it to the session,
// checking feasibility event by event when validate is set.
func streamTo(sess *client.Session, in io.Reader, validate bool) error {
	var feas *trace.Validator
	if validate {
		feas = trace.NewValidator()
	}
	sc := trace.NewScanner(in)
	for sc.Scan() {
		e := sc.Event()
		if feas != nil {
			if err := feas.Event(e); err != nil {
				return fmt.Errorf("infeasible trace: %w", err)
			}
		}
		if err := sess.Write(e); err != nil {
			return fmt.Errorf("streaming to %s: %w", sess.Addr(), err)
		}
	}
	return sc.Err()
}
