// Command traceshrink minimizes a trace while preserving a detector
// behaviour, via delta debugging: either "a tool warns" or "two tools
// disagree". It turns a multi-thousand-event failing workload into a
// handful-of-events witness for bug reports and precision triage.
//
// Usage:
//
//	traceshrink -warns FastTrack trace.txt          # keep: FastTrack warns
//	traceshrink -disagree FastTrack,Eraser trace.txt # keep: different warnings
//	traceshrink -warns Eraser -o min.trace trace.txt
//
// The minimized trace is written in the text format (stdout by default).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fasttrack"
	"fasttrack/internal/rr"
	"fasttrack/internal/shrink"
	"fasttrack/trace"
)

func main() {
	warns := flag.String("warns", "", "shrink while this tool still warns")
	disagree := flag.String("disagree", "", "shrink while these two comma-separated tools flag different variables")
	out := flag.String("o", "-", "output file (text format; default stdout)")
	flag.Parse()

	if (*warns == "") == (*disagree == "") {
		fmt.Fprintln(os.Stderr, "traceshrink: exactly one of -warns or -disagree is required")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceshrink [flags] trace-file")
		os.Exit(2)
	}

	tr, err := readTrace(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if err := tr.Validate(); err != nil {
		fatal(fmt.Errorf("input trace infeasible: %w", err))
	}

	mk := func(name string) func() rr.Tool {
		if _, err := fasttrack.NewTool(name, fasttrack.Hints{}); err != nil {
			fatal(err)
		}
		return func() rr.Tool {
			tool, _ := fasttrack.NewTool(name, fasttrack.Hints{})
			return tool
		}
	}

	var pred shrink.Predicate
	switch {
	case *warns != "":
		pred = shrink.Warns(mk(*warns))
	default:
		parts := strings.SplitN(*disagree, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-disagree needs two comma-separated tool names"))
		}
		pred = shrink.Disagree(mk(strings.TrimSpace(parts[0])), mk(strings.TrimSpace(parts[1])))
	}

	if !pred(tr) {
		fatal(fmt.Errorf("input trace does not satisfy the predicate; nothing to shrink"))
	}
	min := shrink.Minimize(tr, pred)

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := trace.WriteText(w, min); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "traceshrink: %d events -> %d events\n", len(tr), len(min))
}

func readTrace(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tr trace.Trace
	sc := trace.NewScanner(f)
	for sc.Scan() {
		tr = append(tr, sc.Event())
	}
	return tr, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceshrink:", err)
	os.Exit(2)
}
