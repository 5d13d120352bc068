package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"

	"fasttrack"
	"fasttrack/instrument"
)

// runFrontend implements `racedetect run <pkg-dir>` and `racedetect
// test <pkg-dir>`: instrument the package's source with the
// fasttrack/instrument rewriter, build and execute it, and analyze its
// event stream with FastTrack while it runs. The runtime shim writes
// the binary trace to a pipe the target inherits as file descriptor 3;
// this process analyzes it as it arrives (runStream), or forwards it to
// a daemon with -server, so the reports match `racedetect <trace>` on
// the same stream (-o keeps a copy). Arguments after "--" go to the
// program (run) or to go test (test), and standard input is passed
// through. run executes the program in the current directory and
// caches its instrumented executable (bincache.go), so a repeated run
// of unchanged source skips the rewrite and the build; test runs go
// test in the instrumented module. It returns the process exit status
// instead of exiting, so the deferred removal of the instrumented work
// directory runs on every path.
func runFrontend(mode string, args []string) int {
	var targetArgs []string
	if i := slices.Index(args, "--"); i >= 0 {
		args, targetArgs = args[:i], args[i+1:]
	}
	fs := flag.NewFlagSet("racedetect "+mode, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: racedetect %s [flags] [package-dir] [-- args...]\n\n"+
			"Instruments the Go package in package-dir (default .), %s it, and\n"+
			"analyzes its execution for data races with FastTrack while it runs.\n"+
			"The package must be self-contained and import only the standard\n"+
			"library. Arguments after -- are passed to %s; standard input is\n"+
			"passed through.\n\n", mode, map[string]string{
			"run": "runs", "test": "tests"}[mode], map[string]string{
			"run": "the program", "test": "go test"}[mode])
		fs.PrintDefaults()
	}
	serverAddr := fs.String("server", "", "analyze on a racedetectd daemon at this address instead of locally")
	jsonOut := fs.Bool("json", false, "write a machine-readable run report to stdout")
	jsonFile := fs.String("json.file", "", "write the run report to this file instead of stdout")
	stats := fs.Bool("stats", false, "print instrumentation statistics with the analysis")
	traceOut := fs.String("o", "", "also save the event stream as a binary trace at this path")
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

	buildEnv := append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	goVars, goVarsErr := goEnv(buildEnv)
	root := *moduleDir
	if root == "" {
		err := goVarsErr
		if err == nil {
			root, err = findFasttrackModule(goVars["GOMOD"])
		}
		if err != nil {
			return reportErr(fmt.Errorf("cannot locate the fasttrack module (run from inside it or pass -module): %w", err))
		}
	}

	var target *exec.Cmd
	if mode == "run" {
		// -keep asks for the instrumented module, so it bypasses the
		// cache.
		var cache *binCache
		if !*keep && goVarsErr == nil {
			cache = openBinCache(pkgDir, root, goVars)
		}
		bin, done, err := runBinary(pkgDir, root, cache, buildEnv, *keep, *stats)
		defer done()
		if err != nil {
			return reportErr(err)
		}
		// The program runs in the caller's directory, as under go run.
		target = exec.Command(bin, targetArgs...)
	} else {
		workDir, _, err := instrumentPkg(pkgDir, root, true, *keep, *stats)
		if workDir != "" && !*keep {
			defer os.RemoveAll(workDir)
		}
		if err != nil {
			return reportErr(err)
		}
		args := append(append([]string{"test"}, instrument.BuildFlags()...), "-count=1", ".")
		target = exec.Command("go", append(args, targetArgs...)...)
		target.Dir = workDir
	}

	var saved *os.File
	if *traceOut != "" {
		var err error
		if saved, err = os.Create(*traceOut); err != nil {
			return reportErr(err)
		}
		defer saved.Close()
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return reportErr(err)
	}
	defer pr.Close()
	var in io.Reader = pr
	if saved != nil {
		in = io.TeeReader(pr, saved)
	}

	// The target inherits the pipe's write end as descriptor 3 (also
	// through go test, which passes it on to the test binary), and the
	// shim opens it by name. Once the target holds it, this process
	// drops its own copy, so the stream ends when the target exits.
	target.Env = append(buildEnv, "FASTTRACK_TRACE=/dev/fd/3")
	target.Stdin, target.Stdout, target.Stderr = os.Stdin, os.Stdout, os.Stderr
	target.ExtraFiles = []*os.File{pw}
	err = target.Start()
	pw.Close()
	if err != nil {
		return reportErr(err)
	}

	br := bufio.NewReader(in)
	_, peekErr := br.Peek(1)
	var exit int
	if peekErr == nil {
		exit = analyzeStream(br, *traceOut, *serverAddr, *stats, *jsonOut, *jsonFile)
	}
	// Drain what the analysis left unread: the shim writes under its
	// stream mutex, so a stalled reader would hang the target.
	if _, err := io.Copy(io.Discard, br); err != nil {
		io.Copy(io.Discard, pr)
	}
	targetExit := 0
	if err := target.Wait(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			return reportErr(err)
		}
		targetExit = ee.ExitCode()
	}
	if saved != nil {
		if err := saved.Close(); err != nil {
			return reportErr(err)
		}
	}
	if peekErr == io.EOF {
		if saved != nil {
			os.Remove(*traceOut)
		}
		return reportErr(fmt.Errorf("the instrumented target produced no trace (it exited %d before the shim ran)", targetExit))
	}
	if peekErr != nil {
		return reportErr(peekErr)
	}
	if targetExit != 0 {
		fmt.Fprintf(os.Stderr, "racedetect %s: target exited with status %d\n", mode, targetExit)
		if exit == 0 {
			exit = targetExit
		}
	}
	return exit
}

// analyzeStream runs FastTrack over the target's event stream as it
// arrives: in-process through runStream, or on the daemon at
// serverAddr through the -server path. name is the saved trace's path
// ("" when none), for the JSON report.
func analyzeStream(in io.Reader, name, serverAddr string, stats, jsonOut bool, jsonFile string) int {
	if serverAddr != "" {
		return runRemote(in, name, serverAddr, "FastTrack", "fine", "off", "", false, false, jsonOut, jsonFile)
	}
	return runStream(in, name, []string{"FastTrack"}, fasttrack.Fine, fasttrack.PolicyOff, 0, 0, stats,
		false, jsonOut, jsonFile, nil)
}

// reportErr prints err and returns the error exit status, for paths
// that must unwind through deferred cleanup before exiting (fatal is
// reportErr plus os.Exit).
func reportErr(err error) int {
	fmt.Fprintln(os.Stderr, "racedetect:", err)
	return 2
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+fasttrack\s*$`)

// findFasttrackModule resolves the fasttrack checkout from the current
// directory's module, whose go.mod go env reports as gomod.
func findFasttrackModule(gomod string) (string, error) {
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

// runBinary returns the instrumented executable of the main package in
// pkgDir, from the cache when it holds one, and a function to call once
// the program has run. On a cache miss it instruments and builds into
// the cache; with a nil cache it builds into the instrumented module's
// directory, which the returned function removes unless keep is set.
// It prints the rewriter's statistics when stats is set.
func runBinary(pkgDir, root string, cache *binCache, env []string, keep, stats bool) (string, func(), error) {
	if cache != nil {
		if bin, st, ok := cache.lookup(); ok {
			if stats {
				printStats(st)
			}
			return bin, func() {}, nil
		}
	}
	workDir, res, err := instrumentPkg(pkgDir, root, false, keep, stats)
	done := func() {
		if workDir != "" && !keep {
			os.RemoveAll(workDir)
		}
	}
	if err != nil {
		return "", done, err
	}
	if !res.Main {
		return "", done, fmt.Errorf("racedetect run: %s is package %s, not a main package (use racedetect test)", pkgDir, res.Package)
	}
	out := workDir
	if cache != nil {
		if out, err = os.MkdirTemp(cache.dir, "tmp-"); err != nil {
			cache, out = nil, workDir
		}
	}
	bin := filepath.Join(out, binName)
	build := exec.Command("go", append(append([]string{"build"}, instrument.BuildFlags()...), "-o", bin, ".")...)
	build.Dir = workDir
	build.Env = env
	if msg, err := build.CombinedOutput(); err != nil {
		if cache != nil {
			os.RemoveAll(out)
		}
		return "", done, fmt.Errorf("building instrumented package:\n%s%w", msg, err)
	}
	if cache == nil {
		return bin, done, nil
	}
	// The module is no longer needed: the cached program runs without it.
	done()
	bin, done = cache.commit(out, res.Stats)
	return bin, done, nil
}

// instrumentPkg instruments pkgDir into a new ft-instrument-* module
// directory, which it returns (also with an error, when it was made).
// keep prints the directory; stats prints the rewriter's statistics.
func instrumentPkg(pkgDir, root string, test, keep, stats bool) (string, *instrument.Result, error) {
	workDir, err := os.MkdirTemp("", "ft-instrument-")
	if err != nil {
		return "", nil, err
	}
	if keep {
		fmt.Fprintln(os.Stderr, "instrumented module:", workDir)
	}
	res, err := instrument.Instrument(pkgDir, workDir, instrument.Options{ModuleDir: root, Test: test})
	if err != nil {
		return workDir, nil, err
	}
	if stats {
		printStats(res.Stats)
	}
	return workDir, res, nil
}

// printStats prints the rewriter's statistics line.
func printStats(s instrument.Stats) {
	fmt.Fprintf(os.Stderr, "instrumented %d file(s): %d reads, %d writes, %d forks, %d chan ops, %d sync ops, %d skipped, %d handles, %d shared closures\n",
		s.Files, s.Reads, s.Writes, s.Forks, s.ChanOps, s.SyncOps, s.Skipped, s.Handles, s.SharedClosures)
}
