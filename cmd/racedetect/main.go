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
//	           [-membudget bytes] [-json]
//	           [-fidelity full|sampled(p)] [-provenance]
//	           [-json.file out.json] [-metrics.addr :6060] trace-file
//	racedetect -chaos [trace-file]
//
// -provenance runs the provenance flight recorder (FastTrack only):
// each warning then carries the vector clocks of both accesses, the
// exact happens-before comparison that failed, the racing threads'
// recent release/acquire chains, and a rendered "why this is a race"
// explanation — in the text output, the -json report, and (with
// -server) the daemon's results. Costs roughly one clock copy per
// analyzed access; see BENCH_provenance.json.
//
// -fidelity trades detection probability for analysis cost: sampled(p)
// analyzes the fraction p of the variable space (accesses to the rest
// are counted but not checked — a real race can be missed with
// probability about 1-p, and the report says what fraction was
// analyzed). The rate holds for the whole run, locally and with
// -server alike, so a sampled run reports a subset of a full run's
// races.
//
// Under -policy off the trace must be feasible: the first event that
// breaks the locking or fork/join discipline stops the run with exit 2.
// A validating policy instead strictly rejects, repairs or drops such
// events itself, locally and with -server alike.
//
// With "-" as the file name the trace is read from standard input.
// -chaos runs the fault-injection smoke suite: every registered
// detector is driven through systematically corrupted variants of the
// trace (or of a generated random trace when no file is given),
// asserting that no panic escapes and all degradation is accounted for.
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
	"math/rand"
	"os"
	"strings"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/chaos"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
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
	memBudget := flag.Int64("membudget", 0, "FastTrack shadow-memory budget in bytes (0 = unbounded)")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection smoke suite over every detector")
	jsonOut := flag.Bool("json", false, "write a machine-readable run report to stdout")
	jsonFile := flag.String("json.file", "", "write the run report to this file instead of stdout")
	metricsAddr := flag.String("metrics.addr", "", "serve live metrics and pprof on this address (e.g. :6060)")
	serverAddr := flag.String("server", "", "stream the trace to a racedetectd daemon at this address instead of analyzing locally")
	fidelity := flag.String("fidelity", "", "analysis fidelity: full or sampled(p)")
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

	policy, ok := rr.PolicyFromString(*policyName)
	if !ok {
		fatal(fmt.Errorf("unknown policy %q (want off, strict, repair, or drop)", *policyName))
	}

	fidMode, sampleRate, err := client.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	remote := *serverAddr != ""
	if fidMode == client.FidelitySampled && sampleRate == 0 {
		sampleRate = 0.25 // match the daemon's default sampling rate
	}

	if *provenance {
		if *all {
			fatal(fmt.Errorf("-provenance is a FastTrack feature; drop -all"))
		}
		if *toolName != "FastTrack" {
			fatal(fmt.Errorf("-provenance: tool %q does not support provenance recording", *toolName))
		}
	}

	if *chaosMode {
		runChaos(flag.Args())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racedetect [flags] trace-file")
		fmt.Fprintln(os.Stderr, "       racedetect run|test [flags] package-dir [-- args...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	g := fasttrack.Fine
	switch *gran {
	case "fine":
	case "coarse":
		g = fasttrack.Coarse
	default:
		fatal(fmt.Errorf("unknown granularity %q", *gran))
	}

	if *traceWire && !remote {
		fatal(fmt.Errorf("-trace spans the client/daemon pipeline; add -server"))
	}
	if remote {
		if *all {
			fatal(fmt.Errorf("-server streams a single tool's run; drop -all"))
		}
		in, err := openInput(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		os.Exit(runRemote(in, flag.Arg(0), *serverAddr, *toolName, *gran, *policyName, *fidelity, *provenance, *traceWire, *jsonOut, *jsonFile))
	}

	if sampleRate > 0 && *all {
		fatal(fmt.Errorf("-fidelity samples a single tool's run; drop -all"))
	}

	ms, err := startMetrics(*metricsAddr)
	if err != nil {
		fatal(err)
	}
	names := []string{*toolName}
	if *all {
		names = []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"}
	}
	in, err := openInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	os.Exit(runStream(in, flag.Arg(0), names, g, policy, sampleRate, *memBudget, *stats, *provenance, *jsonOut, *jsonFile, ms))
}

// applySampleRate starts a tool's sampling tier at the -fidelity rate
// (no-op at 0, i.e. full fidelity); a tool that cannot sample is a
// configuration error, not a silent full-fidelity run.
func applySampleRate(tool fasttrack.Tool, rate float64) error {
	if rate <= 0 {
		return nil
	}
	s, ok := tool.(fasttrack.Sampled)
	if !ok {
		return fmt.Errorf("-fidelity: tool %q does not support sampled analysis", tool.Name())
	}
	s.SetSamplingRate(rate)
	return nil
}

// streamBatch is how many events runStream hands each dispatcher at
// once; it divides the 8192-event progress grid.
const streamBatch = 1024

// runStream analyzes the trace read from in in one pass, fanning each
// event out to one dispatcher per named tool, with the full pipeline
// attached (validation policy, live metrics, progress reporting). It
// prints every tool's report in order once the stream ends, writes the
// JSON report when asked (name is the trace's name there), and returns
// the process exit code. racedetect run and test feed it the
// instrumented target's stream while the target runs.
func runStream(in io.Reader, name string, names []string, g fasttrack.Granularity, policy fasttrack.Policy,
	sampleRate float64, memBudget int64, stats, provenance, jsonOut bool, jsonFile string, ms *metricsServer) int {

	var rep *runReport
	if jsonOut || jsonFile != "" {
		rep = &runReport{Schema: runReportSchema, Trace: name, Stream: true}
	}
	tools := make([]fasttrack.Tool, len(names))
	ds := make([]*rr.Dispatcher, len(names))
	for i, toolName := range names {
		// The JSON report names both accesses of each race, which needs
		// FastTrack's access history, as in the remote path.
		hints := fasttrack.Hints{MemoryBudget: memBudget, Provenance: provenance,
			DetailedReports: rep != nil && toolName == "FastTrack"}
		tool, err := fasttrack.NewTool(toolName, hints)
		if err != nil {
			return reportErr(err)
		}
		if err := applySampleRate(tool, sampleRate); err != nil {
			return reportErr(err)
		}
		d := rr.NewDispatcher(tool)
		d.Granularity = g
		d.Policy = policy
		d.Obs = obs.NewRegistry()
		tools[i], ds[i] = tool, d
	}
	// Live metrics and progress follow the last tool: FastTrack under -all.
	last, lastTool := ds[len(ds)-1], tools[len(tools)-1]
	ms.attach(last.Obs)

	// Feasibility checking applies only under PolicyOff; a validating
	// policy performs its own online checks.
	var feas *trace.Validator
	if policy == fasttrack.PolicyOff {
		feas = trace.NewValidator()
	}

	// Events reach the dispatchers in batches, which amortizes their
	// per-event accounting; feasibility is still checked per event.
	sc := trace.NewScanner(in)
	prog := newProgress(last.Obs)
	batch := make([]trace.Event, 0, streamBatch)
	deliver := func() {
		for _, d := range ds {
			d.EventBatch(batch)
		}
		batch = batch[:0]
		// Progress/metrics refresh on a coarse event-count grid so the
		// hot loop stays cheap between ticks.
		if last.Fed&8191 == 0 {
			prog.maybeTick(last.Fed, lastTool)
		}
	}
	for sc.Scan() {
		e := sc.Event()
		if feas != nil {
			if err := feas.Event(e); err != nil {
				return reportErr(fmt.Errorf("infeasible trace: %w", err))
			}
		}
		if batch = append(batch, e); len(batch) == streamBatch {
			deliver()
		}
	}
	deliver()
	// Under PolicyOff a decode error aborts before any report is printed.
	if policy == fasttrack.PolicyOff && sc.Err() != nil {
		return reportErr(sc.Err())
	}
	prog.final(last.Fed, lastTool)

	humanOut := humanOutput(rep != nil, jsonFile)
	exit := 0
	var strictErr error
	for i, tool := range tools {
		d := ds[i]
		races := tool.Races()
		health := d.Health()
		st := tool.Stats()
		d.FillStats(&st)
		rr.PublishStats(d.Obs, "tool", st)
		d.Obs.Gauge("tool.races").Set(int64(len(races)))

		var details []fasttrack.DetailedReport
		if provenance {
			if dt, ok := tool.(rr.DetailedTool); ok {
				details = dt.DetailedRaces()
			}
		}

		printReport(humanOut, tool, races, st, stats)
		printDetails(humanOut, details)
		if policy != fasttrack.PolicyOff {
			printHealth(humanOut, health)
		}
		if rep != nil {
			rep.Tools = append(rep.Tools, toolReport{
				Tool:    tool.Name(),
				Events:  d.Fed,
				Races:   raceReportsDetailed(races, g == fasttrack.Fine, details),
				Stats:   st,
				Health:  healthReport(client.HealthFrom(health)),
				Metrics: d.Obs.Snapshot(),
			})
		}
		// Every dispatcher validates the same stream, so a strict
		// violation stops the report at the first tool.
		if health.Err != nil {
			strictErr = fmt.Errorf("strict validation: %w", health.Err)
			break
		}
		if len(races) > 0 {
			exit = 1
		}
	}
	fmt.Fprintf(os.Stderr, "racedetect: %d events analyzed\n", sc.Index())

	switch {
	case sc.Err() != nil:
		finishJSON(rep, jsonFile, 2)
		return reportErr(sc.Err())
	case strictErr != nil:
		finishJSON(rep, jsonFile, 2)
		return reportErr(strictErr)
	}
	return finishJSON(rep, jsonFile, exit)
}

// progress emits periodic one-line status reports on stderr during
// streaming runs and refreshes the tool.* gauges so a live /metrics
// scrape sees detector state, not only dispatcher counters.
type progress struct {
	reg        *obs.Registry
	start      time.Time
	last       time.Time
	lastEvents int64
	ticked     bool
}

// progressInterval is the minimum wall-clock spacing of progress lines.
const progressInterval = time.Second

func newProgress(reg *obs.Registry) *progress {
	now := time.Now()
	return &progress{reg: reg, start: now, last: now}
}

func (p *progress) maybeTick(events int64, tool fasttrack.Tool) {
	now := time.Now()
	if now.Sub(p.last) < progressInterval {
		return
	}
	st := tool.Stats()
	races := len(tool.Races())
	rr.PublishStats(p.reg, "tool", st)
	p.reg.Gauge("tool.races").Set(int64(races))
	rate := float64(events-p.lastEvents) / now.Sub(p.last).Seconds()
	fmt.Fprintf(os.Stderr, "racedetect: progress events=%d rate=%.0f/s races=%d shadowBytes=%d\n",
		events, rate, races, st.ShadowBytes)
	p.last = now
	p.lastEvents = events
	p.ticked = true
}

// final prints a closing progress line (only if any were printed, so
// short runs stay quiet) with the whole-run average rate.
func (p *progress) final(events int64, tool fasttrack.Tool) {
	if !p.ticked {
		return
	}
	races, shadowBytes := len(tool.Races()), tool.Stats().ShadowBytes
	el := time.Since(p.start).Seconds()
	rate := float64(events)
	if el > 0 {
		rate = float64(events) / el
	}
	fmt.Fprintf(os.Stderr, "racedetect: done events=%d avgRate=%.0f/s races=%d shadowBytes=%d\n",
		events, rate, races, shadowBytes)
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

// printHealth renders the pipeline's degradation snapshot.
func printHealth(w io.Writer, h fasttrack.Health) {
	if h.Healthy {
		fmt.Fprintln(w, "  pipeline: healthy")
		return
	}
	fmt.Fprintf(w, "  pipeline: violations=%d repaired=%d dropped=%d synthesized=%d panics=%d quarantined=%d\n",
		h.Violations, h.Repaired, h.Dropped, h.Synthesized, h.Panics, h.QuarantinedLocations)
	for _, v := range h.ViolationLog {
		fmt.Fprintf(w, "    %s\n", v)
	}
	for _, p := range h.PanicLog {
		fmt.Fprintf(w, "    %s\n", p)
	}
	if h.ToolDisabled {
		fmt.Fprintln(w, "    tool disabled after exceeding the panic budget")
	}
}

// runChaos is the -chaos smoke mode: corrupt a base trace every way the
// harness knows and sweep every registered detector through the result
// under the repair policy, checking the degradation accounting.
func runChaos(args []string) {
	var base trace.Trace
	if len(args) == 1 {
		var err error
		base, err = readTrace(args[0])
		if err != nil {
			fatal(err)
		}
	} else if len(args) == 0 {
		base = sim.RandomTrace(rand.New(rand.NewSource(1)), sim.DefaultRandomConfig())
		fmt.Printf("chaos: no trace file; using a random feasible trace (%d events)\n", len(base))
	} else {
		fatal(fmt.Errorf("-chaos takes at most one trace file"))
	}

	failures := 0
	for _, name := range fasttrack.ToolNames() {
		for _, mode := range chaos.Modes() {
			for _, seed := range []int64{1, 2, 3} {
				tool, err := fasttrack.NewTool(name, fasttrack.Hints{})
				if err != nil {
					fatal(err)
				}
				res := chaos.Run(tool, base, mode, seed, fasttrack.PolicyRepair)
				if err := res.Check(); err != nil {
					failures++
					fmt.Printf("FAIL %v\n", err)
					continue
				}
				if seed == 1 {
					h := res.Health
					fmt.Printf("  %-16s %-12s events=%-5d races=%-3d violations=%-4d repaired=%-4d dropped=%-4d\n",
						name, mode, res.Events, res.Races, h.Violations, h.Repaired, h.Dropped)
				}
			}
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("chaos: %d accounting failure(s)", failures))
	}
	fmt.Println("chaos: OK")
}

func printReport(w io.Writer, tool fasttrack.Tool, races []fasttrack.Report, st fasttrack.Stats, stats bool) {
	fmt.Fprintf(w, "%s: %d warning(s)\n", tool.Name(), len(races))
	for _, r := range races {
		fmt.Fprintf(w, "  %s\n", r)
	}
	// A sampled run's verdict is qualified: accesses outside the sampled
	// variable set were never checked, so "0 warnings" means "0 in the
	// analyzed fraction".
	if st.SampledOut > 0 {
		fmt.Fprintf(w, "  sampled analysis: detection probability %.3f (%d of %d accesses analyzed)\n",
			st.DetectionProbability(), st.Reads+st.Writes-st.SampledOut, st.Reads+st.Writes)
	}
	if stats {
		fmt.Fprintf(w, "  events=%d reads=%d writes=%d syncs=%d vcAlloc=%d vcOps=%d shadowBytes=%d\n",
			st.Events, st.Reads, st.Writes, st.Syncs, st.VCAlloc, st.VCOp, st.ShadowBytes)
		if st.MemSqueezes > 0 || st.MemCoarse > 0 {
			fmt.Fprintf(w, "  membudget: squeezes=%d coarseAccesses=%d\n", st.MemSqueezes, st.MemCoarse)
		}
		rr.FprintOpsMix(w, tool.Name(), st)
	}
}

// printDetails renders the provenance evidence of each warning, one
// blank-line-separated block per race, indented to match printReport's
// warning lines. The remote path (-server) prints the daemon's details
// through the same function, so local and remote -provenance output is
// byte-identical for the same trace.
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

// openInput opens the trace source ("-" = stdin). The process exits
// after the analysis, which closes the file.
func openInput(path string) (io.Reader, error) {
	if path == "-" {
		return os.Stdin, nil
	}
	return os.Open(path)
}

// readTrace loads the whole trace, for -chaos, which corrupts it.
func readTrace(path string) (trace.Trace, error) {
	in, err := openInput(path)
	if err != nil {
		return nil, err
	}
	var tr trace.Trace
	sc := trace.NewScanner(in)
	for sc.Scan() {
		tr = append(tr, sc.Event())
	}
	return tr, sc.Err()
}

func fatal(err error) { os.Exit(reportErr(err)) }
