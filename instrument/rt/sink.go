package rt

import (
	"fmt"
	"os"

	"fasttrack/trace"
)

// eventSink is where the shim's serialized event stream goes. events is
// always called under the shim's global mutex, so implementations need
// no locking of their own.
type eventSink interface {
	events([]trace.Event)
	finish() error
}

// newSink opens the binary trace named by FASTTRACK_TRACE. The path may
// be a file or an inherited pipe (racedetect run passes /dev/fd/3 and
// analyzes the stream while the program runs). FASTTRACK_MODE, when
// set, must be "trace", the only mode.
func newSink() (eventSink, error) {
	if mode := os.Getenv("FASTTRACK_MODE"); mode != "" && mode != "trace" {
		return nil, fmt.Errorf("unknown FASTTRACK_MODE %q (the shim only writes traces)", mode)
	}
	path := os.Getenv("FASTTRACK_TRACE")
	if path == "" {
		return nil, fmt.Errorf("FASTTRACK_MODE=trace needs FASTTRACK_TRACE=<path>")
	}
	// Write-only: opening a pipe read-write would make the shim one of
	// its readers, so a write would block forever, not fail, if the
	// analyzing process died.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return nil, err
	}
	return &traceSink{f: f, w: trace.NewWriter(f, trace.Binary)}, nil
}

// traceSink appends the serialized stream to a binary trace.
type traceSink struct {
	f *os.File
	w *trace.Writer
}

func (s *traceSink) events(evs []trace.Event) {
	for _, e := range evs {
		if err := s.w.Write(e); err != nil {
			fmt.Fprintln(os.Stderr, "fasttrack/rt: trace write:", err)
			os.Exit(2)
		}
	}
}

func (s *traceSink) finish() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Close()
}
