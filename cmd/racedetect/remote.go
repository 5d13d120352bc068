package main

import (
	"fmt"
	"io"

	"fasttrack/client"
	"fasttrack/trace"
)

// runRemote streams the trace read from in to the request's racedetectd
// daemon instead of analyzing it in-process, batch by batch as it
// decodes, where client.NewMonitor builds the session's Monitor from the
// same handshake a local run uses. It renders the session's final
// results through the local renderer, so local and remote runs diff
// clean; the transport note goes to stderr.
func runRemote(in io.Reader, r request) int {
	h := r.hello
	opts := []client.Option{
		client.WithTool(h.Tool),
		client.WithGranularity(h.Gran),
		client.WithValidation(h.Policy),
	}
	if h.Detailed {
		opts = append(opts, client.WithDetailedReports())
	}
	if h.Provenance {
		opts = append(opts, client.WithProvenance())
	}
	if h.Tracing {
		opts = append(opts, client.WithTracing())
	}
	sess, err := client.Dial(r.server, opts...)
	if err != nil {
		return reportErr(err)
	}
	damaged, err := scan(in, r.feasible(), func(batch []trace.Event) error {
		for _, e := range batch {
			if err := sess.Write(e); err != nil {
				return fmt.Errorf("streaming to %s: %w", sess.Addr(), err)
			}
		}
		return nil
	})
	if err != nil {
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
	return r.render([]analysis{{Results: res}}, damaged,
		fmt.Sprintf("racedetect: %d events analyzed remotely (session %s on %s)", res.Events, res.SessionID, sess.Addr()))
}
