package rt

import (
	"fmt"
	"io"
	"os"
)

// newSink opens the binary trace named by FASTTRACK_TRACE, which the
// shim writes its encoded stream to. The path may be a file or an
// inherited pipe (racedetect run passes /dev/fd/3 and analyzes the
// stream while the program runs).
func newSink() (io.WriteCloser, error) {
	path := os.Getenv("FASTTRACK_TRACE")
	if path == "" {
		return nil, fmt.Errorf("instrumented program needs FASTTRACK_TRACE=<path>")
	}
	// Write-only: opening a pipe read-write would make the shim one of
	// its readers, so a write would block forever, not fail, if the
	// analyzing process died.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return nil, err
	}
	return f, nil
}
