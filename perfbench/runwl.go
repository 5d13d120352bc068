package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fasttrack/instrument"
	"fasttrack/trace"
)

// Input sizes at size 1. They keep shim execution the largest phase of
// a racedetect run on run-kernel while leaving well over 100 ms of it if
// the shim gets ten times faster.
const (
	kernelKeys   = 50000
	pipelineTxs  = 17000
	rtHelperCall = 40000
	goRunReps    = 3
)

// runTarget is one of the benchmark's target programs and its verdicts.
type runTarget struct {
	name string // kernel or pipeline
	dir  string // package directory
	in   input
	// races is the expected race list of racedetect run, as kinds;
	// racy is the expected go run -race verdict.
	races []string
	racy  bool
}

// runReport is the part of racedetect's -json run report the benchmark
// checks.
type runReport struct {
	Tools []struct {
		Events int64 `json:"events"`
		Races  []struct {
			Kind string `json:"kind"`
		} `json:"races"`
	} `json:"tools"`
}

func (b *bench) target(name string) runTarget {
	t := runTarget{name: name, dir: filepath.Join(b.root, "perfbench", "targets", name)}
	switch name {
	case "kernel":
		t.in = kernelInput(b.seed, int(kernelKeys*b.size))
		t.races = []string{"write-write race"}
		t.racy = true
	default:
		t.in = pipelineInput(b.seed, int(pipelineTxs*b.size))
	}
	return t
}

// runWorkload measures run-kernel or run-pipeline: racedetect run on the
// target against go run and go run -race of the same package on the same
// input, in rotation until the measuring time is used up.
func (b *bench) runWorkload(name string) error {
	t := b.target(name)
	var racedetect, plain string
	dir, err := b.setup(func(dir string) error {
		var err error
		if racedetect, err = b.build(dir, "cmd/racedetect"); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "input.bin"), t.in.data, 0o644); err != nil {
			return err
		}
		// The reference binaries; building them also fills the build
		// cache (the race runtime is the slow part when cold), so go
		// run and go run -race measure what a user's repeated run costs.
		plain = filepath.Join(dir, "plain")
		if _, err := b.must(b.goCmd(t.dir, "build", "-o", plain, ".")); err != nil {
			return err
		}
		_, err = b.must(b.goCmd(t.dir, "build", "-race", "-o", filepath.Join(dir, "race"), "."))
		return err
	})
	if err != nil {
		return err
	}
	inEnv := []string{"PERFBENCH_INPUT=" + filepath.Join(dir, "input.bin")}
	if b.traced {
		return b.traceRun(t, dir, racedetect, plain, inEnv)
	}

	var runS, goRunS, goRaceS, eventsPerS, peakMB []float64
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		out := filepath.Join(dir, fmt.Sprintf("out-%d", i))
		env := append(append(b.env, inEnv...), "PERFBENCH_OUTPUT="+out)
		o, events, err := b.racedetectRun(t, racedetect, env)
		if b.attempt(err) {
			runS = append(runS, o.wall.Seconds())
			eventsPerS = append(eventsPerS, float64(events)/o.wall.Seconds())
			peakMB = append(peakMB, float64(o.peakRSSK)/1024)
		}
		// go run takes a few tens of milliseconds, so it is sampled
		// more often than the other two to make its median as steady.
		for j := 0; j < goRunReps; j++ {
			if o, err := b.goRun(t, env, false); b.attempt(err) {
				goRunS = append(goRunS, o.wall.Seconds())
			}
		}
		if o, err := b.goRun(t, env, true); b.attempt(err) {
			goRaceS = append(goRaceS, o.wall.Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d racedetect runs; run_s %v; go run %v; go run -race %v\n",
		len(runS), runS, goRunS, goRaceS)
	b.set("run_s", "s", median(runS))
	b.set("slowdown_go_run", "x", median(runS)/median(goRunS))
	b.set("slowdown_go_race", "x", median(runS)/median(goRaceS))
	b.set("events_per_s", "events/s", median(eventsPerS))
	// On run-* one session is one racedetect run. A run makes far fewer
	// than the hundred a p90 with ten samples beyond it needs, so the
	// p90 slot carries the median rather than the noise of a maximum.
	b.set("session_p50_s", "s", median(runS))
	b.set("session_p90_s", "s", median(runS))
	b.set("peak_rss_mb", "MB", median(peakMB))
	b.setOKShare()
	return nil
}

// setOKShare records the share of attempted operations that succeeded.
func (b *bench) setOKShare() {
	b.set("ok_share", "ratio", 1-float64(len(b.failures))/float64(max(1, b.res.Attempted)))
}

// racedetectRun runs `racedetect run -json` on the target and checks the
// race list, the exit status and the target's output. It returns the
// number of events the analysis saw.
func (b *bench) racedetectRun(t runTarget, racedetect string, env []string) (outcome, int64, error) {
	// racedetect run leaves its instrumented module (several MB) in
	// TMPDIR, because it exits through os.Exit past its deferred
	// cleanup, so each run gets a directory of its own to remove.
	tmp, err := os.MkdirTemp(b.work, "racedetect-run-")
	if err != nil {
		return outcome{}, 0, err
	}
	defer os.RemoveAll(tmp)
	c := command{dir: b.root, env: append(env[:len(env):len(env)], "TMPDIR="+tmp),
		args:  []string{racedetect, "run", "-json", "-module", b.root, t.dir},
		rssOf: map[string]bool{"ft.bin": true, "racedetect": true}}
	if err := clearOutput(env); err != nil {
		return outcome{}, 0, err
	}
	o, err := c.run(b.ctx)
	if err != nil {
		return o, 0, err
	}
	events, err := t.checkReport(o)
	if err == nil {
		err = t.in.check(outputOf(env))
	}
	if err != nil {
		return o, 0, fmt.Errorf("racedetect run %s: %w", t.name, err)
	}
	return o, events, nil
}

// checkReport checks racedetect's exit status and -json report against
// the target's expected races and returns the analyzed event count.
func (t runTarget) checkReport(o outcome) (int64, error) {
	var rep runReport
	// The report is the JSON document on stdout; the target prints
	// nothing there.
	if err := json.Unmarshal(o.stdout, &rep); err != nil || len(rep.Tools) != 1 {
		return 0, fmt.Errorf("unreadable report (exit %d): %v\n%s", o.exit, err, o.stderr)
	}
	var kinds []string
	for _, r := range rep.Tools[0].Races {
		kinds = append(kinds, r.Kind)
	}
	wantExit := 0
	if len(t.races) > 0 {
		wantExit = 1
	}
	if strings.Join(kinds, ",") != strings.Join(t.races, ",") || o.exit != wantExit {
		return 0, fmt.Errorf("races %q exit %d, want %q exit %d", kinds, o.exit, t.races, wantExit)
	}
	return rep.Tools[0].Events, nil
}

// goRun runs `go run [-race] .` in the target's directory and checks
// the race detector's verdict and the output.
func (b *bench) goRun(t runTarget, env []string, race bool) (outcome, error) {
	args := []string{"go", "run", "."}
	if race {
		args = []string{"go", "run", "-race", "."}
	}
	if err := clearOutput(env); err != nil {
		return outcome{}, err
	}
	o, err := command{dir: t.dir, env: env, args: args}.run(b.ctx)
	if err != nil {
		return o, err
	}
	if err := t.checkGoRun(o, race); err != nil {
		return o, fmt.Errorf("%s on %s: %w", strings.Join(args, " "), t.name, err)
	}
	return o, t.in.check(outputOf(env))
}

// checkGoRun checks a go run verdict: a race report makes the program
// exit 66, which go run passes on as "exit status 66" and exit 1.
func (t runTarget) checkGoRun(o outcome, race bool) error {
	reported := bytes.Contains(o.stderr, []byte("WARNING: DATA RACE")) &&
		bytes.Contains(o.stderr, []byte("exit status 66"))
	switch {
	case race && t.racy && (!reported || o.exit == 0):
		return fmt.Errorf("race not reported (exit %d)", o.exit)
	case (!race || !t.racy) && o.exit != 0:
		return fmt.Errorf("exit %d:\n%s", o.exit, o.stderr)
	}
	return nil
}

// clearOutput removes the target's output file, so that the check after
// an operation reads only what that operation wrote.
func clearOutput(env []string) error {
	if err := os.Remove(outputOf(env)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func outputOf(env []string) string {
	for i := len(env) - 1; i >= 0; i-- {
		if v, ok := strings.CutPrefix(env[i], "PERFBENCH_OUTPUT="); ok {
			return v
		}
	}
	return ""
}

// traceRun is the traced run of run-kernel or run-pipeline. Each
// operation times a real racedetect run, then repeats its steps one by
// one under spans — instrument.Instrument, go build, the instrumented
// target, the analysis — so the phases' self times can be set against
// the whole. After the operations it runs the uninstrumented target, the
// rt per-call helper, and the in-process layer probes on the captured
// trace.
func (b *bench) traceRun(t runTarget, dir, racedetect, plain string, inEnv []string) error {
	var captured string
	var runWall []float64
	deadline := time.Now().Add(b.seconds)
	for op := 1; op == 1 || time.Now().Before(deadline); op++ {
		out := filepath.Join(dir, fmt.Sprintf("out-%d", op))
		env := append(append(b.env, inEnv...), "PERFBENCH_OUTPUT="+out)
		var o outcome
		var err error
		b.tr.do(op, 0, "racedetect.run", func() { o, _, err = b.racedetectRun(t, racedetect, env) })
		if b.attempt(err) {
			runWall = append(runWall, o.wall.Seconds())
		}
		path, err := b.decomposedRun(op, t, dir, racedetect, env)
		if b.attempt(err) {
			captured = path
		}
	}
	if captured == "" {
		return fmt.Errorf("no traced racedetect run succeeded")
	}

	// The uninstrumented target, for the shim's cost per event.
	env := append(append(b.env, inEnv...), "PERFBENCH_OUTPUT="+filepath.Join(dir, "out-plain"))
	var plainS []float64
	for i := 0; i < 3; i++ {
		err := clearOutput(env)
		var o outcome
		if err == nil {
			o, err = b.must(command{dir: dir, env: env, args: []string{plain}})
		}
		if err == nil {
			err = t.in.check(outputOf(env))
		}
		if !b.attempt(err) {
			break
		}
		plainS = append(plainS, o.wall.Seconds())
	}

	data, err := os.ReadFile(captured)
	if err != nil {
		return err
	}
	tr, err := trace.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return err
	}
	c := tr.Count()
	layers := b.probeLayers([]trace.Trace{tr})
	execS := median(b.tr.selfSeconds("rt.exec"))
	analyzeS := median(b.tr.selfSeconds("analyze"))
	phases := 0.0
	for _, p := range []string{"instrument", "build", "rt.exec", "analyze"} {
		phases += median(b.tr.selfSeconds(p))
	}

	b.set("build.go_build_s", "s", median(b.tr.selfSeconds("build")))
	b.set("rt.exec_s", "s", execS)
	b.set("rt.events", "count", float64(c.Total()))
	b.set("rt.sync_share", "ratio", float64(c.Other)/float64(c.Total()))
	b.set("rt.ns_per_event", "ns", (execS-median(plainS))*1e9/float64(c.Total()))
	b.set("racedetect.analyze_s", "s", analyzeS)
	b.set("racedetect.residual_s", "s", analyzeS-layers.analysisS)
	b.set("run.racedetect_s", "s", median(runWall))
	b.set("run.phases_s", "s", phases)
	b.set("run.residual_share", "ratio", 1-phases/median(runWall))
	if err := b.rtCalls(dir); err != nil {
		return err
	}
	b.setLayers(layers)

	// The captured trace, streamed to racedetectd as racedetect run
	// -server would, measures the client and svc layers on this program.
	bin, err := b.build(dir, "cmd/racedetectd")
	if err != nil {
		return err
	}
	rot := []sessionTrace{{name: t.name + "/captured", tr: tr}}
	want, err := verdictOf(tr)
	if err != nil {
		return fmt.Errorf("%s/captured: %w", t.name, err)
	}
	return b.streamLayers(bin, rot, []verdict{want}, capturedStreamTime)
}

// capturedStreamTime is how long a traced run-* run streams the captured
// trace to racedetectd, split between an untraced and a traced daemon.
const capturedStreamTime = 4 * time.Second

// decomposedRun performs racedetect run's steps itself, each under a
// span, and returns the captured trace file.
func (b *bench) decomposedRun(op int, t runTarget, dir, racedetect string, env []string) (string, error) {
	end, root := b.tr.begin(op, 0, "run")
	defer end()
	work := filepath.Join(dir, fmt.Sprintf("instrumented-%d", op))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	var res *instrument.Result
	var err error
	b.tr.do(op, root, "instrument", func() {
		res, err = instrument.Instrument(t.dir, work, instrument.Options{ModuleDir: b.root})
	})
	if err != nil {
		return "", err
	}
	s := res.Stats
	records := s.Reads + s.Writes + s.Forks + s.ChanOps + s.SyncOps
	b.set("instrument.records", "count", float64(records))
	b.set("instrument.skipped_share", "ratio", float64(s.Skipped)/float64(records+s.Skipped))
	b.set("instrument.rewrite_s", "s", median(b.tr.selfSeconds("instrument")))

	bin := filepath.Join(work, "ft.bin")
	b.tr.do(op, root, "build", func() { _, err = b.must(b.goCmd(work, "build", "-o", bin, ".")) })
	if err != nil {
		return "", err
	}
	tracePath := filepath.Join(work, "ft.trace")
	runEnv := append(env, "FASTTRACK_MODE=trace", "FASTTRACK_TRACE="+tracePath)
	if err := clearOutput(env); err != nil {
		return "", err
	}
	var o outcome
	b.tr.do(op, root, "rt.exec", func() { o, err = b.must(command{dir: work, env: runEnv, args: []string{bin}}) })
	if err != nil {
		return "", err
	}
	if err := t.in.check(outputOf(env)); err != nil {
		return "", err
	}
	b.tr.do(op, root, "analyze", func() {
		o, err = command{dir: b.root, env: env, args: []string{racedetect, "-tool", "FastTrack", "-json", tracePath}}.run(b.ctx)
	})
	if err != nil {
		return "", err
	}
	_, err = t.checkReport(o)
	return tracePath, err
}
