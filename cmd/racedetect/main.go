// Command racedetect runs one or more dynamic race detectors over a
// recorded trace file (text or binary; the format is auto-detected) and
// prints each tool's warnings and statistics. The trace is analyzed in
// one streaming pass, without loading it into memory; with -all every
// detector sees each event as it is decoded.
//
// Usage:
//
//	racedetect [-tool FastTrack] [-all] [-granularity fine|coarse]
//	           [-stats] [-policy off|strict|repair|drop]
//	           [-json] [-provenance]
//	           [-json.file out.json] [-metrics.addr :6060]
//	           [-server addr [-trace]] trace-file
//
// The flags become one client.Handshake, and client.NewMonitor builds
// each tool's Monitor from it: here, one per tool (-all runs six), or on
// a racedetectd daemon with -server. Either way the report is printed
// by the same renderer, so a local and a remote run of one trace print
// the same stdout. -metrics.addr acts on the local analysis only; with
// -server it is refused.
//
// -provenance runs the provenance flight recorder (FastTrack only):
// each warning then carries the vector clocks of both accesses, the
// exact happens-before comparison that failed, the racing threads'
// recent release/acquire chains, and a rendered "why this is a race"
// explanation — in the text output, the -json report, and (with
// -server) the daemon's results. Costs roughly one clock copy per
// analyzed access; see BENCH_provenance.json.
//
// Every policy judges feasibility with one state machine,
// trace.Validator, so a trace is feasible under all four or under none.
// Every policy holds the trace to the identifier caps: thread ids up to
// 4096 and the variables of reads and writes up to 2^24. Under -policy
// off the trace must be feasible and within the caps: the first event
// that breaks the locking or fork/join discipline or names an id beyond
// a cap stops the run. The report of the events before it is printed,
// and the run exits 2 with the message -policy strict gives, prefixed
// "infeasible trace:". A validating policy instead strictly rejects,
// repairs or drops such events itself (an id beyond a cap cannot be
// repaired, so repair drops it), locally and with -server alike. A
// trace that does not decode likewise ends the run, under every policy,
// after the report of the events before the damage; a stop earlier in
// the trace is reported in its place. Every run reports its pipeline's
// health; a run that stops names its fault there ("pipeline: stopped:")
// and, with -json, in the run report's "error".
//
// With "-" as the file name the trace is read from standard input.
//
// Observability:
//
//	-stats         adds a Table-2-style operation-mix breakdown per tool
//	-json          emits a machine-readable run report on stdout (the
//	               human-readable output moves to stderr); -json.file
//	               writes the report to a file instead
//	-metrics.addr  serves live metrics (JSON at /metrics) and
//	               net/http/pprof while the run is in flight (under
//	               -all, FastTrack's metrics)
//
// A run longer than a second prints progress lines on stderr (events
// processed, rate, races so far, shadow bytes; FastTrack's under -all).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/trace"
)

func main() {
	// Subcommand dispatch must precede flag.Parse: `racedetect run` and
	// `racedetect test` instrument and execute a real Go package and
	// analyze its event stream as it runs, with their own flags.
	if len(os.Args) > 1 && (os.Args[1] == "run" || os.Args[1] == "test") {
		os.Exit(runFrontend(os.Args[1], os.Args[2:]))
	}

	toolName := flag.String("tool", "FastTrack", "detector to run (see -list)")
	all := flag.Bool("all", false, "run every detector and compare")
	gran := flag.String("granularity", "fine", "shadow granularity: fine or coarse")
	stats := flag.Bool("stats", false, "print instrumentation statistics and the operation-mix table")
	policyName := flag.String("policy", "off", "stream-validation policy: off, strict, repair, or drop")
	jsonOut := flag.Bool("json", false, "write a machine-readable run report to stdout")
	jsonFile := flag.String("json.file", "", "write the run report to this file instead of stdout")
	metricsAddr := flag.String("metrics.addr", "", "serve live metrics and pprof on this address (e.g. :6060; local analysis only)")
	serverAddr := flag.String("server", "", "stream the trace to a racedetectd daemon at this address instead of analyzing locally")
	provenance := flag.Bool("provenance", false, "record race provenance: each warning carries clock evidence, the failed happens-before check, the recent sync chain, and a rendered explanation (FastTrack only)")
	traceWire := flag.Bool("trace", false, "request pipeline tracing from the daemon: frames carry trace IDs and per-stage spans land in its /debug/trace (requires -server and a daemon started with -trace)")
	list := flag.Bool("list", false, "list available detectors and exit")
	flag.Parse()

	if *list {
		for _, n := range fasttrack.ToolNames() {
			fmt.Println(n)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racedetect [flags] trace-file")
		fmt.Fprintln(os.Stderr, "       racedetect run|test [flags] package-dir [-- args...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *provenance {
		if *all {
			fatal(fmt.Errorf("-provenance is a FastTrack feature; drop -all"))
		}
		if *toolName != "FastTrack" {
			fatal(fmt.Errorf("-provenance: tool %q does not support provenance recording", *toolName))
		}
	}
	remote := *serverAddr != ""
	switch {
	case *traceWire && !remote:
		fatal(fmt.Errorf("-trace spans the client/daemon pipeline; add -server"))
	case remote && *all:
		fatal(fmt.Errorf("-server streams a single tool's run; drop -all"))
	case remote && *metricsAddr != "":
		fatal(fmt.Errorf("-metrics.addr serves the local analysis's metrics; the daemon serves its own (racedetectd -http), drop it or -server"))
	}

	r := request{
		hello: client.Handshake{
			Tool:       *toolName,
			Policy:     *policyName,
			Gran:       *gran,
			Provenance: *provenance,
			Tracing:    *traceWire,
			// The JSON report names both accesses of each race, which
			// needs FastTrack's access history; other tools ignore it.
			Detailed: *jsonOut || *jsonFile != "",
		},
		all:      *all,
		name:     flag.Arg(0),
		stats:    *stats,
		jsonOut:  *jsonOut,
		jsonFile: *jsonFile,
		server:   *serverAddr,
	}
	ms, err := startMetrics(*metricsAddr)
	if err != nil {
		fatal(err)
	}
	r.metrics = ms
	in, err := openInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	os.Exit(r.analyze(in))
}

// request is one racedetect analysis: the handshake every tool's
// Monitor is built from, locally or on a daemon, and how to report it.
// racedetect run and test make one too.
type request struct {
	hello    client.Handshake
	name     string // the trace's name in the JSON report
	stats    bool
	jsonOut  bool
	jsonFile string
	server   string // racedetectd address; "" analyzes locally

	// Local analysis only.
	all     bool // one Monitor per detector instead of hello.Tool's alone
	metrics *metricsServer
}

// feasible reports whether the client checks the trace's feasibility:
// under -policy off only, locally and with -server alike. A validating
// policy strictly rejects, repairs or drops bad events itself.
func (r request) feasible() bool { return r.hello.Policy == "" || r.hello.Policy == "off" }

// analyze runs the request over the trace read from in and returns the
// process exit code.
func (r request) analyze(in io.Reader) int {
	if r.server != "" {
		return runRemote(in, r)
	}
	return runStream(in, r)
}

// streamBatch is how many events scan hands its sink at once; it
// divides the 8192-event progress grid.
const streamBatch = 1024

// scan decodes the trace from in with trace.Scanner.ScanBatch, the
// decode loop racedetectd's sessions run too, and hands it to sink in
// batches, the one loop of local and remote runs. When feasible is set
// each batch is checked first against the feasibility state machine.
// The first fault, a decode error or (when feasible is set) an
// infeasible event, ends the scan once the events before it have
// reached the sink, and is returned as damaged: the run reports what it
// analyzed and exits 2, as it does when the dispatchers stop at an id
// beyond the identifier caps. The returned err, a failing sink, aborts
// the run before any report.
func scan(in io.Reader, feasible bool, sink func([]trace.Event) error) (damaged, err error) {
	var feas *trace.Validator
	if feasible {
		feas = trace.NewValidator()
	}
	sc := trace.NewScanner(in)
	batch := make([]trace.Event, 0, streamBatch)
	for {
		batch = sc.ScanBatch(batch[:0], streamBatch)
		if feas != nil {
			for i, e := range batch {
				if verr := feas.Event(e); verr != nil {
					damaged = stopErr(true, verr.Error())
					batch = batch[:i]
					break
				}
			}
		}
		if len(batch) > 0 {
			if err := sink(batch); err != nil {
				return nil, err
			}
		}
		if damaged != nil {
			return damaged, nil
		}
		if len(batch) < streamBatch {
			break
		}
	}
	return sc.Err(), nil
}

// runStream analyzes the trace read from in in one pass, feeding each
// batch to one Monitor per tool of the request, with live metrics and
// progress reporting attached to the last one (FastTrack under -all),
// and renders every tool's report once the stream ends. racedetect run
// and test feed it the instrumented target's stream while the target
// runs.
func runStream(in io.Reader, r request) int {
	names := []string{r.hello.Tool}
	if r.all {
		names = []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"}
	}
	mons := make([]*fasttrack.Monitor, len(names))
	tools := make([]string, len(names))
	for i, name := range names {
		h := r.hello
		h.Tool = name
		var err error
		if mons[i], tools[i], err = client.NewMonitor(h); err != nil {
			return reportErr(err)
		}
	}
	last := mons[len(mons)-1]
	r.metrics.attach(last.MetricsRegistry())
	prog := newProgress()
	var fed int64
	damaged, err := scan(in, r.feasible(), func(batch []trace.Event) error {
		for _, m := range mons {
			if _, err := m.IngestBatch(batch); err != nil {
				return err
			}
		}
		// Progress and metrics refresh on a coarse event-count grid so
		// the hot loop stays cheap between ticks.
		if fed += int64(len(batch)); fed&8191 == 0 {
			prog.maybeTick(fed, last)
		}
		return nil
	})
	if err != nil {
		return reportErr(err)
	}
	prog.final(fed, last)

	as := make([]analysis, len(mons))
	for i, m := range mons {
		as[i] = analysis{Results: client.ResultsOf(m, tools[i], r.hello.Provenance), metrics: m.Metrics()}
		as[i].Events = fed
		h := m.Health()
		for _, v := range h.ViolationLog {
			as[i].log = append(as[i].log, v.String())
		}
		for _, p := range h.PanicLog {
			as[i].log = append(as[i].log, p.String())
		}
	}
	return r.render(as, damaged, fmt.Sprintf("racedetect: %d events analyzed", fed))
}

// progress emits periodic one-line status reports on stderr during
// streaming runs and refreshes the tool.* gauges so a live /metrics
// scrape sees detector state, not only dispatcher counters.
type progress struct {
	start      time.Time
	last       time.Time
	lastEvents int64
	ticked     bool
}

// progressInterval is the minimum wall-clock spacing of progress lines.
const progressInterval = time.Second

func newProgress() *progress {
	now := time.Now()
	return &progress{start: now, last: now}
}

func (p *progress) maybeTick(events int64, m *fasttrack.Monitor) {
	now := time.Now()
	if now.Sub(p.last) < progressInterval {
		return
	}
	snap := m.Metrics() // publishes the tool.* gauges
	rate := float64(events-p.lastEvents) / now.Sub(p.last).Seconds()
	fmt.Fprintf(os.Stderr, "racedetect: progress events=%d rate=%.0f/s races=%d shadowBytes=%d\n",
		events, rate, snap.Gauge("tool.races"), snap.Gauge("tool.shadowBytes"))
	p.last = now
	p.lastEvents = events
	p.ticked = true
}

// final prints a closing progress line (only if any were printed, so
// short runs stay quiet) with the whole-run average rate.
func (p *progress) final(events int64, m *fasttrack.Monitor) {
	if !p.ticked {
		return
	}
	snap := m.Metrics()
	el := time.Since(p.start).Seconds()
	rate := float64(events)
	if el > 0 {
		rate = float64(events) / el
	}
	fmt.Fprintf(os.Stderr, "racedetect: done events=%d avgRate=%.0f/s races=%d shadowBytes=%d\n",
		events, rate, snap.Gauge("tool.races"), snap.Gauge("tool.shadowBytes"))
}

// openInput opens the trace source ("-" = stdin). The process exits
// after the analysis, which closes the file.
func openInput(path string) (io.Reader, error) {
	if path == "-" {
		return os.Stdin, nil
	}
	return os.Open(path)
}

func fatal(err error) { os.Exit(reportErr(err)) }
