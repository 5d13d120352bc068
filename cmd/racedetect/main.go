// Command racedetect runs one or more dynamic race detectors over a
// recorded trace file (text or binary; the format is auto-detected) and
// prints each tool's warnings and statistics.
//
// Usage:
//
//	racedetect [-tool FastTrack] [-all] [-granularity fine|coarse]
//	           [-validate] [-stats] [-policy off|strict|repair|drop]
//	           [-membudget bytes] [-batch N] [-json]
//	           [-fidelity full|sampled(p)|adaptive] [-provenance]
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
// analyzed), and adaptive lets the racedetectd governor move the
// session along the full→sampled→coarse→shed ladder under pressure, so
// it requires -server.
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
//	               net/http/pprof while the run is in flight
//	-stream        additionally emits periodic progress lines on stderr
//	               (events processed, rate, races so far, shadow bytes)
package main

import (
	"bufio"
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
	"fasttrack/internal/hb"
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
	validate := flag.Bool("validate", true, "check trace feasibility")
	stats := flag.Bool("stats", false, "print instrumentation statistics and the operation-mix table")
	explain := flag.Bool("explain", false, "for each FastTrack warning, show both racing accesses and why nothing orders them (implies -tool FastTrack)")
	stream := flag.Bool("stream", false, "process the trace incrementally without loading it into memory (single tool only)")
	policyName := flag.String("policy", "off", "stream-validation policy: off, strict, repair, or drop")
	memBudget := flag.Int64("membudget", 0, "FastTrack shadow-memory budget in bytes (0 = unbounded)")
	batch := flag.Int("batch", 0, "replay through the Monitor in IngestBatch chunks of this many events (0 = off; single tool, -policy off, no -membudget or -stream)")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection smoke suite over every detector")
	jsonOut := flag.Bool("json", false, "write a machine-readable run report to stdout")
	jsonFile := flag.String("json.file", "", "write the run report to this file instead of stdout")
	metricsAddr := flag.String("metrics.addr", "", "serve live metrics and pprof on this address (e.g. :6060)")
	serverAddr := flag.String("server", "", "stream the trace to a racedetectd daemon at this address instead of analyzing locally")
	servers := flag.String("servers", "", "stream to a racedetectd fleet: comma-separated nodes (addr or addr=httpaddr each); the session routes to its owning node, steers around capped/draining nodes, and fails over if its node dies")
	fidelity := flag.String("fidelity", "", "analysis fidelity: full, sampled(p), or adaptive (adaptive requires -server)")
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
	if *serverAddr != "" && *servers != "" {
		fatal(fmt.Errorf("-server and -servers are mutually exclusive"))
	}
	remote := *serverAddr != "" || *servers != ""
	if fidMode == client.FidelityAdaptive && !remote {
		fatal(fmt.Errorf("-fidelity adaptive is governed by racedetectd; add -server"))
	}
	if fidMode == client.FidelitySampled && sampleRate == 0 {
		sampleRate = 0.25 // match the daemon's default sampled rung
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
		if *all || *stream || *explain {
			fatal(fmt.Errorf("-server streams a single tool's batch run; drop -all/-stream/-explain"))
		}
		in, err := openInput(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		os.Exit(runRemote(in, flag.Arg(0), *serverAddr, *servers, *toolName, *gran, *policyName, *fidelity, *validate, *provenance, *traceWire, *jsonOut, *jsonFile))
	}

	ms, err := startMetrics(*metricsAddr)
	if err != nil {
		fatal(err)
	}

	jsonWanted := *jsonOut || *jsonFile != ""
	humanOut := humanOutput(jsonWanted, *jsonFile)
	rep := &runReport{Schema: runReportSchema, Trace: flag.Arg(0), Stream: *stream}

	if sampleRate > 0 && *all {
		fatal(fmt.Errorf("-fidelity samples a single tool's run; drop -all"))
	}

	if *stream {
		if *all {
			fatal(fmt.Errorf("-stream runs a single tool; drop -all"))
		}
		in, err := openInput(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		os.Exit(runStream(in, *toolName, g, policy, sampleRate, *validate, *stats, jsonWanted, *provenance, *jsonFile, ms, rep, humanOut))
	}

	tr, err := readTrace(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *validate {
		if err := tr.Validate(); err != nil {
			fatal(fmt.Errorf("infeasible trace: %w", err))
		}
	}

	if *explain {
		explainRaces(tr, g)
		return
	}

	if *batch > 0 {
		if *all {
			fatal(fmt.Errorf("-batch runs a single tool; drop -all"))
		}
		if policy != fasttrack.PolicyOff {
			fatal(fmt.Errorf("-batch is incompatible with -policy %s", *policyName))
		}
		if *memBudget != 0 {
			fatal(fmt.Errorf("-batch is incompatible with -membudget"))
		}
		exit := runMonitor(tr, *toolName, g, *batch, sampleRate, *stats, jsonWanted, *provenance, ms, rep, humanOut)
		os.Exit(finishJSON(jsonWanted, rep, *jsonFile, exit))
	}

	names := []string{*toolName}
	if *all {
		names = []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"}
	}

	exit := 0
	for _, name := range names {
		hints := fasttrack.Hints{Threads: tr.Threads(), MemoryBudget: *memBudget}
		// The JSON report renders both access sites of each race, which
		// needs FastTrack's access-history tracking.
		if jsonWanted && name == "FastTrack" {
			hints.DetailedReports = true
		}
		hints.Provenance = *provenance
		tool, err := fasttrack.NewTool(name, hints)
		if err != nil {
			fatal(err)
		}
		if err := applySampleRate(tool, sampleRate); err != nil {
			fatal(err)
		}

		reg := obs.NewRegistry()
		ms.attach(reg)
		d := rr.NewDispatcher(tool)
		d.Granularity = g
		d.Policy = policy
		d.Obs = reg
		d.Feed(tr)

		races := tool.Races()
		health := d.Health()
		st := tool.Stats()
		d.FillStats(&st)
		rr.PublishStats(reg, "tool", st)
		reg.Gauge("tool.races").Set(int64(len(races)))

		var details []fasttrack.DetailedReport
		if *provenance {
			if dt, ok := tool.(rr.DetailedTool); ok {
				details = dt.DetailedRaces()
			}
		}

		printReport(humanOut, tool, races, st, *stats)
		printDetails(humanOut, details)
		if policy != fasttrack.PolicyOff {
			printHealth(humanOut, health)
		}
		if jsonWanted {
			rep.Tools = append(rep.Tools, toolReport{
				Tool:    tool.Name(),
				Events:  d.Fed,
				Races:   raceReportsDetailed(races, g == fasttrack.Fine, details),
				Stats:   st,
				Health:  healthJSON(health),
				Metrics: reg.Snapshot(),
			})
		}
		if health.Err != nil {
			finishJSON(jsonWanted, rep, *jsonFile, 2)
			fatal(fmt.Errorf("strict validation: %w", health.Err))
		}
		if len(races) > 0 {
			exit = 1
		}
	}
	os.Exit(finishJSON(jsonWanted, rep, *jsonFile, exit))
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

// runMonitor replays the trace through the Monitor instead of the raw
// dispatcher, in IngestBatch chunks of batch events: the amortized
// batch ingestion the racedetectd service uses per wire frame.
func runMonitor(tr trace.Trace, toolName string, g fasttrack.Granularity, batch int,
	sampleRate float64, stats, jsonWanted, provenance bool, ms *metricsServer, rep *runReport, humanOut io.Writer) int {

	hints := fasttrack.Hints{Threads: tr.Threads(), Provenance: provenance}
	if jsonWanted && toolName == "FastTrack" {
		hints.DetailedReports = true
	}
	tool, err := fasttrack.NewTool(toolName, hints)
	if err != nil {
		fatal(err)
	}
	if err := applySampleRate(tool, sampleRate); err != nil {
		fatal(err)
	}
	mon := fasttrack.NewMonitor(fasttrack.WithTool(tool), fasttrack.WithGranularity(g))
	ms.attach(mon.MetricsRegistry())
	for i := 0; i < len(tr); i += batch {
		mon.IngestBatch(tr[i:min(i+batch, len(tr))])
	}

	races := mon.Races()
	st := mon.Stats()
	health := mon.Health()
	snap := mon.Metrics() // also publishes tool.*
	var details []fasttrack.DetailedReport
	if provenance {
		details = mon.DetailedRaces()
	}

	printReport(humanOut, tool, races, st, stats)
	printDetails(humanOut, details)
	fmt.Fprintf(humanOut, "(%d events via serial monitor, batch %d)\n", len(tr), batch)
	if jsonWanted {
		rep.Tools = append(rep.Tools, toolReport{
			Tool:    tool.Name(),
			Events:  int64(len(tr)),
			Races:   raceReportsDetailed(races, g == fasttrack.Fine, details),
			Stats:   st,
			Health:  healthJSON(health),
			Metrics: snap,
		})
	}
	if len(races) > 0 {
		return 1
	}
	return 0
}

// runStream analyzes the trace read from in incrementally, with the
// full pipeline attached (validation policy, live metrics, progress
// reporting), writes the JSON report when asked, and returns the
// process exit code. racedetect run and test feed it the instrumented
// target's stream while the target runs.
func runStream(in io.Reader, toolName string, g fasttrack.Granularity, policy fasttrack.Policy,
	sampleRate float64, validate, stats, jsonWanted, provenance bool, jsonPath string, ms *metricsServer, rep *runReport, humanOut io.Writer) int {

	// The JSON report names both accesses of each race, which needs
	// FastTrack's access history, as in the batch and remote paths.
	hints := fasttrack.Hints{Provenance: provenance, DetailedReports: jsonWanted && toolName == "FastTrack"}
	tool, err := fasttrack.NewTool(toolName, hints)
	if err != nil {
		return reportErr(err)
	}
	if err := applySampleRate(tool, sampleRate); err != nil {
		return reportErr(err)
	}

	reg := obs.NewRegistry()
	ms.attach(reg)
	d := rr.NewDispatcher(tool)
	d.Granularity = g
	d.Policy = policy
	d.Obs = reg

	// Feasibility checking (the batch -validate semantics) applies only
	// under PolicyOff; a validating policy performs its own online checks.
	var feas *trace.Validator
	if policy == fasttrack.PolicyOff && validate {
		feas = trace.NewValidator()
	}

	sc := trace.NewScanner(in)
	prog := newProgress(reg)
	var feasErr error
	for sc.Scan() {
		e := sc.Event()
		if feas != nil {
			if err := feas.Event(e); err != nil {
				feasErr = err
				break
			}
		}
		d.Event(e)
		// Progress/metrics refresh on a coarse event-count grid so the
		// hot loop stays cheap between ticks.
		if d.Fed&8191 == 0 {
			prog.maybeTick(d.Fed, tool)
		}
	}
	if policy == fasttrack.PolicyOff {
		// Historical batch-equivalent behavior: feasibility or decode
		// errors abort before any report is printed.
		if feasErr != nil {
			return reportErr(feasErr)
		}
		if sc.Err() != nil {
			return reportErr(sc.Err())
		}
	}

	races := tool.Races()
	health := d.Health()
	st := tool.Stats()
	d.FillStats(&st)
	rr.PublishStats(reg, "tool", st)
	reg.Gauge("tool.races").Set(int64(len(races)))
	prog.final(d.Fed, len(races), st.ShadowBytes)

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
	fmt.Fprintf(humanOut, "(%d events, streamed)\n", sc.Index())

	if jsonWanted {
		rep.Tools = append(rep.Tools, toolReport{
			Tool:    tool.Name(),
			Events:  d.Fed,
			Races:   raceReportsDetailed(races, g == fasttrack.Fine, details),
			Stats:   st,
			Health:  healthJSON(health),
			Metrics: reg.Snapshot(),
		})
	}

	switch {
	case sc.Err() != nil:
		finishJSON(jsonWanted, rep, jsonPath, 2)
		return reportErr(sc.Err())
	case health.Err != nil:
		finishJSON(jsonWanted, rep, jsonPath, 2)
		return reportErr(fmt.Errorf("strict validation: %w", health.Err))
	case len(races) > 0:
		return finishJSON(jsonWanted, rep, jsonPath, 1)
	}
	return finishJSON(jsonWanted, rep, jsonPath, 0)
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
func (p *progress) final(events int64, races int, shadowBytes int64) {
	if !p.ticked {
		return
	}
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

// finishJSON emits the run report when requested and returns exit, or
// the error status if the report cannot be written.
func finishJSON(wanted bool, rep *runReport, path string, exit int) int {
	if !wanted {
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

// explainRaces runs FastTrack with detailed reports and renders, for
// each warning, both racing accesses and the happens-before evidence (or
// its absence) from the oracle.
func explainRaces(tr trace.Trace, g fasttrack.Granularity) {
	tool, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{DetailedReports: true})
	if err != nil {
		fatal(err)
	}
	races := fasttrack.Replay(tr, tool, g)
	fmt.Printf("FastTrack: %d warning(s)\n", len(races))
	if len(races) == 0 {
		return
	}
	oracle := hb.New(tr)
	for _, r := range races {
		fmt.Printf("\n%s\n", r)
		if r.PrevIndex < 0 || r.Index >= len(tr) {
			fmt.Println("  (no recorded prior access; re-run the producer with detailed reports)")
			continue
		}
		fmt.Printf("  first access:  event %d: %s\n", r.PrevIndex, tr[r.PrevIndex])
		fmt.Printf("  second access: event %d: %s\n", r.Index, tr[r.Index])
		ex := oracle.Explain(r.PrevIndex, r.Index)
		for _, line := range strings.Split(ex.Render(tr), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	os.Exit(1)
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

func readTrace(path string) (trace.Trace, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	br := bufio.NewReader(r)
	isBinary, err := trace.Sniff(br)
	if err != nil {
		return nil, err
	}
	if isBinary {
		return trace.ReadBinary(br)
	}
	return trace.ReadText(br)
}

func fatal(err error) { os.Exit(reportErr(err)) }
