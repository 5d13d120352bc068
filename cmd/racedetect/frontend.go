package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"fasttrack/instrument"
)

// runFrontend implements `racedetect run <pkg-dir>` and `racedetect
// test <pkg-dir>`: instrument the package's source with the
// fasttrack/instrument rewriter, build and execute it (capturing the
// event stream to a binary trace file via the runtime shim's trace
// sink), then analyze that trace by re-invoking this binary — so the
// run/test modes produce byte-identical reports to `racedetect
// <trace>` on the same stream, locally and with -server. Arguments after
// "--" go to the program (run) or to go test (test), and standard input
// is passed through. It returns the process exit status instead of
// exiting, so the deferred removal of the instrumented work directory
// runs on every path.
func runFrontend(mode string, args []string) int {
	var targetArgs []string
	if i := slices.Index(args, "--"); i >= 0 {
		args, targetArgs = args[:i], args[i+1:]
	}
	fs := flag.NewFlagSet("racedetect "+mode, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: racedetect %s [flags] [package-dir] [-- args...]\n\n"+
			"Instruments the Go package in package-dir (default .), %s it, and\n"+
			"analyzes the recorded execution for data races. The package must be\n"+
			"self-contained and import only the standard library. Arguments after\n"+
			"-- are passed to %s; standard input is passed through.\n\n", mode, map[string]string{
			"run": "runs", "test": "tests"}[mode], map[string]string{
			"run": "the program", "test": "go test"}[mode])
		fs.PrintDefaults()
	}
	toolName := fs.String("tool", "FastTrack", "detector to analyze the recorded trace with")
	serverAddr := fs.String("server", "", "analyze on a racedetectd daemon at this address instead of locally")
	jsonOut := fs.Bool("json", false, "write a machine-readable run report to stdout")
	jsonFile := fs.String("json.file", "", "write the run report to this file instead of stdout")
	stats := fs.Bool("stats", false, "print instrumentation statistics with the analysis")
	traceOut := fs.String("o", "", "also save the captured trace to this path")
	keep := fs.Bool("keep", false, "keep (and print) the instrumented module directory")
	moduleDir := fs.String("module", "", "fasttrack module root for the generated replace directive (default: the module of the current directory)")
	fs.Parse(args)

	if fs.NArg() > 1 {
		fs.Usage()
		return 2
	}
	pkgDir := "."
	if fs.NArg() == 1 {
		pkgDir = fs.Arg(0)
	}

	root := *moduleDir
	if root == "" {
		var err error
		if root, err = findFasttrackModule(); err != nil {
			return reportErr(fmt.Errorf("cannot locate the fasttrack module (run from inside it or pass -module): %w", err))
		}
	}

	workDir, err := os.MkdirTemp("", "ft-instrument-")
	if err != nil {
		return reportErr(err)
	}
	if *keep {
		fmt.Fprintln(os.Stderr, "instrumented module:", workDir)
	} else {
		defer os.RemoveAll(workDir)
	}

	res, err := instrument.Instrument(pkgDir, workDir, instrument.Options{
		ModuleDir: root,
		Test:      mode == "test",
	})
	if err != nil {
		return reportErr(err)
	}
	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "instrumented %d file(s): %d reads, %d writes, %d forks, %d chan ops, %d sync ops, %d skipped, %d handles, %d shared closures\n",
			s.Files, s.Reads, s.Writes, s.Forks, s.ChanOps, s.SyncOps, s.Skipped, s.Handles, s.SharedClosures)
	}
	if mode == "run" && !res.Main {
		return reportErr(fmt.Errorf("racedetect run: %s is package %s, not a main package (use racedetect test)", pkgDir, res.Package))
	}

	tracePath := filepath.Join(workDir, "ft.trace")
	runEnv := append(os.Environ(),
		"GOFLAGS=-mod=mod", "GOWORK=off",
		"FASTTRACK_MODE=trace", "FASTTRACK_TRACE="+tracePath)

	var target *exec.Cmd
	if mode == "run" {
		bin := filepath.Join(workDir, "ft.bin")
		build := exec.Command("go", "build", "-o", bin, ".")
		build.Dir = workDir
		build.Env = runEnv
		if out, err := build.CombinedOutput(); err != nil {
			return reportErr(fmt.Errorf("building instrumented package:\n%s%w", out, err))
		}
		target = exec.Command(bin, targetArgs...)
	} else {
		target = exec.Command("go", append([]string{"test", "-count=1", "."}, targetArgs...)...)
	}
	targetExit, err := runTarget(target, workDir, runEnv)
	if err != nil {
		return reportErr(err)
	}
	if _, err := os.Stat(tracePath); err != nil {
		return reportErr(fmt.Errorf("the instrumented target produced no trace (it exited %d before the shim ran)", targetExit))
	}
	if *traceOut != "" {
		if err := copyFile(tracePath, *traceOut); err != nil {
			return reportErr(err)
		}
	}

	// Analyze by re-invoking racedetect on the captured trace: same
	// reporting machinery, same JSON, locally or against the daemon.
	analyzeArgs := []string{"-tool", *toolName}
	if *serverAddr != "" {
		analyzeArgs = append(analyzeArgs, "-server", *serverAddr)
	}
	if *jsonOut {
		analyzeArgs = append(analyzeArgs, "-json")
	}
	if *jsonFile != "" {
		analyzeArgs = append(analyzeArgs, "-json.file", *jsonFile)
	}
	if *stats {
		analyzeArgs = append(analyzeArgs, "-stats")
	}
	analyzeArgs = append(analyzeArgs, tracePath)
	analyze := exec.Command(os.Args[0], analyzeArgs...)
	analyze.Stdout = os.Stdout
	analyze.Stderr = os.Stderr
	analyzeExit := 0
	if err := analyze.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			analyzeExit = ee.ExitCode()
		} else {
			return reportErr(err)
		}
	}
	if targetExit != 0 {
		fmt.Fprintf(os.Stderr, "racedetect %s: target exited with status %d\n", mode, targetExit)
		if analyzeExit == 0 {
			analyzeExit = targetExit
		}
	}
	return analyzeExit
}

// reportErr prints err and returns the error exit status, for paths
// that must unwind through deferred cleanup before exiting (fatal is
// reportErr plus os.Exit).
func reportErr(err error) int {
	fmt.Fprintln(os.Stderr, "racedetect:", err)
	return 2
}

// runTarget executes the instrumented target with its input and output
// passed through, returning its exit status; err is set only when the target
// could not be run at all.
func runTarget(cmd *exec.Cmd, dir string, env []string) (int, error) {
	cmd.Dir = dir
	cmd.Env = env
	cmd.Stdin = os.Stdin
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), nil
		}
		return 0, err
	}
	return 0, nil
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+fasttrack\s*$`)

// findFasttrackModule resolves the fasttrack checkout from the current
// directory's module (go env GOMOD).
func findFasttrackModule() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("no go.mod in the current directory's module")
	}
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	if !moduleLineRE.Match(data) {
		return "", fmt.Errorf("%s is not the fasttrack module", gomod)
	}
	return filepath.Dir(gomod), nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
