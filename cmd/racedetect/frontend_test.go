package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fasttrack/internal/svc"
)

// buildRacedetect builds this command into a temporary directory and
// returns the binary, that directory, and the fasttrack module root.
func buildRacedetect(t *testing.T) (bin, base, module string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds racedetect and the instrumented programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	base = t.TempDir()
	bin = filepath.Join(base, "racedetect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	module, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return bin, base, module
}

// racedetect runs the binary with args and returns its exit status and
// combined output.
func racedetect(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("racedetect %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// raceList returns the race list of a JSON run report's only tool, as
// the bytes the report holds.
func raceList(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tools []struct {
			Races json.RawMessage `json:"races"`
		} `json:"tools"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Tools) != 1 {
		t.Fatalf("%s: unreadable run report (%v):\n%s", path, err, data)
	}
	return rep.Tools[0].Races
}

// startDaemon serves an in-process racedetectd on a loopback port for
// the test's lifetime and returns its address.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv := svc.New(svc.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// writeProgram lays down a one-file main package under base/name.
func writeProgram(t *testing.T, base, name, src string) string {
	t.Helper()
	dir := filepath.Join(base, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFrontendRemovesWorkDir: `racedetect run` instruments into an
// ft-instrument-* directory under TMPDIR and must remove it whether the
// run succeeds, the instrumented build fails or the target exits before
// the shim starts; -keep leaves it in place, with no trace file in it
// (the stream goes through a pipe).
func TestFrontendRemovesWorkDir(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	tmp := filepath.Join(base, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)

	clean := writeProgram(t, base, "clean", `package main

import "sync"

func main() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := 0
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			n++
			mu.Unlock()
		}()
	}
	wg.Wait()
	_ = n
}
`)
	// A body-less function type-checks (the instrumenter accepts it) but
	// does not link without assembly, so the instrumented build fails.
	broken := writeProgram(t, base, "broken", `package main

func missing()

func main() { missing() }
`)
	// Exiting in init ends the program before main boots the shim.
	early := writeProgram(t, base, "early", `package main

import "os"

func init() { os.Exit(3) }

func main() {}
`)

	workDirs := func() []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(tmp, "ft-instrument-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(args ...string) int {
		t.Helper()
		code, out := racedetect(t, bin, append([]string{"run", "-module", module}, args...)...)
		t.Logf("racedetect %v: exit %d\n%s", args, code, out)
		return code
	}

	if code := run(clean); code != 0 {
		t.Fatalf("clean run exited %d, want 0", code)
	}
	if left := workDirs(); len(left) != 0 {
		t.Errorf("clean run left %v behind", left)
	}

	if code := run(broken); code != 2 {
		t.Fatalf("failed build exited %d, want 2", code)
	}
	if left := workDirs(); len(left) != 0 {
		t.Errorf("failed build left %v behind", left)
	}

	code, out := racedetect(t, bin, "run", "-module", module, early)
	if code != 2 || !strings.Contains(out, "produced no trace") {
		t.Fatalf("target exiting in init: exit %d, want 2 with \"produced no trace\":\n%s", code, out)
	}
	if left := workDirs(); len(left) != 0 {
		t.Errorf("target exiting in init left %v behind", left)
	}

	if code := run("-keep", clean); code != 0 {
		t.Fatalf("-keep run exited %d, want 0", code)
	}
	left := workDirs()
	if len(left) != 1 {
		t.Fatalf("-keep run left %d work dirs, want 1: %v", len(left), left)
	}
	entries, err := os.ReadDir(left[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".trace" {
			t.Errorf("-keep run wrote a trace file: %s", e.Name())
		}
	}
}

// TestFrontendForwardsArgsAndStdin: arguments after -- reach the
// program, flag-like ones included, and so does standard input; without
// -- the program gets no arguments.
func TestFrontendForwardsArgsAndStdin(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	echo := writeProgram(t, base, "echo", `package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	in, _ := io.ReadAll(os.Stdin)
	fmt.Printf("args=%q stdin=%q\n", os.Args[1:], in)
}
`)
	for _, c := range []struct {
		args  []string
		stdin string
		want  string
	}{
		{[]string{echo}, "", `args=[] stdin=""`},
		{[]string{echo, "--", "a", "b c", "-v"}, "hello\n", `args=["a" "b c" "-v"] stdin="hello\n"`},
		{[]string{"-stats", echo, "--"}, "x", `args=[] stdin="x"`},
	} {
		args := append([]string{"run", "-module", module}, c.args...)
		cmd := exec.Command(bin, args...)
		cmd.Stdin = strings.NewReader(c.stdin)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("racedetect %v: %v\n%s", args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("racedetect %v: output lacks %s:\n%s", args, c.want, out)
		}
	}
}

// TestFrontendJSONKeepsStdoutPure: with -json the run report takes
// stdout, so the target's own output goes to stderr with the
// human-readable report, and stdout decodes as one JSON document.
func TestFrontendJSONKeepsStdoutPure(t *testing.T) {
	bin, _, module := buildRacedetect(t)
	cmd := exec.Command(bin, "run", "-module", module, "-json", filepath.Join(module, "examples", "chanrace"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("racedetect run -json: %v, want exit 1 (one race)\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var rep struct {
		Tools []struct {
			Races []json.RawMessage `json:"races"`
		} `json:"tools"`
	}
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out)
	}
	if dec.More() {
		t.Errorf("stdout holds more than the report:\n%s", out)
	}
	if len(rep.Tools) != 1 || len(rep.Tools[0].Races) != 1 {
		t.Errorf("report %s: want one tool with one race", out)
	}
	for _, line := range []string{"slack = ", "handoff = 42"} {
		if !strings.Contains(stderr.String(), line) {
			t.Errorf("stderr lacks the target's %q line:\n%s", line, stderr.String())
		}
	}
}

// TestFrontendTestForwardsArgs: in test mode the arguments after -- go
// to go test, so -run selects the passing test alone.
func TestFrontendTestForwardsArgs(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	pkg := writeProgram(t, base, "pkg", "package pkg\n")
	test := "package pkg\n\nimport \"testing\"\n\nfunc TestPass(t *testing.T) {}\n\nfunc TestFail(t *testing.T) { t.Fatal(\"selected\") }\n"
	if err := os.WriteFile(filepath.Join(pkg, "pkg_test.go"), []byte(test), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) error {
		out, err := exec.Command(bin, append([]string{"test", "-module", module, pkg}, args...)...).CombinedOutput()
		t.Logf("racedetect test %v: %v\n%s", args, err, out)
		return err
	}
	if err := run(); err == nil {
		t.Fatal("racedetect test without -run passed; TestFail should fail it")
	}
	if err := run("--", "-run", "TestPass"); err != nil {
		t.Fatalf("racedetect test -- -run TestPass: %v", err)
	}
}

// racyMain has one race: main reads y while the child writes it, with
// no happens-before edge between them (x is published over the
// unbuffered channel and is not a race).
const racyMain = `package main

import "fmt"

var x, y int

func main() {
	done := make(chan bool)
	go func() {
		x = 1
		y = 1
		done <- true
	}()
	before := y
	<-done
	after := x
	fmt.Println(before, after)
}
`

// slackMain has one race through buffered-channel slack: with capacity
// 2 the second send does not wait for the first receive, so the child's
// write of v is unordered with main's read.
const slackMain = `package main

import "fmt"

var v int

func main() {
	ch := make(chan int, 2)
	done := make(chan bool)
	go func() {
		v = 1
		<-ch
		<-ch
		done <- true
	}()
	ch <- 1
	ch <- 2
	r := v
	<-done
	fmt.Println(r)
}
`

// TestFrontendAnalysesAgree: the online run's JSON race list equals,
// byte for byte, the replay of its -o trace locally and on a daemon,
// and an online run against the daemon finds the same races.
func TestFrontendAnalysesAgree(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	addr := startDaemon(t)
	for _, prog := range []struct{ name, dir string }{
		{"racy", writeProgram(t, base, "racy", racyMain)},
		{"slack", writeProgram(t, base, "slack", slackMain)},
		{"chanrace", filepath.Join(module, "examples", "chanrace")},
	} {
		t.Run(prog.name, func(t *testing.T) {
			dir := t.TempDir()
			file := func(name string) string { return filepath.Join(dir, name) }
			analyses := []struct {
				name string
				args []string
			}{
				{"online", []string{"run", "-module", module, "-o", file("run.trace"), "-json.file", file("online.json"), prog.dir}},
				{"replay", []string{"-json.file", file("replay.json"), file("run.trace")}},
				{"remote", []string{"-server", addr, "-json.file", file("remote.json"), file("run.trace")}},
				{"online-remote", []string{"run", "-module", module, "-server", addr, "-json.file", file("online-remote.json"), prog.dir}},
			}
			for _, a := range analyses {
				if code, out := racedetect(t, bin, a.args...); code != 1 {
					t.Fatalf("%s: exit %d, want 1 (races found):\n%s", a.name, code, out)
				}
			}
			online := raceList(t, file("online.json"))
			var races []struct {
				Kind      string `json:"kind"`
				PrevIndex int    `json:"prevIndex"`
			}
			if err := json.Unmarshal(online, &races); err != nil {
				t.Fatal(err)
			}
			if len(races) != 1 || races[0].Kind != "write-read race" || races[0].PrevIndex < 0 {
				t.Fatalf("online race list %s, want one write-read race with its prior access", online)
			}
			for _, name := range []string{"replay.json", "remote.json"} {
				if got := raceList(t, file(name)); !bytes.Equal(got, online) {
					t.Errorf("%s race list differs from the online run's:\n%s\nonline:\n%s", name, got, online)
				}
			}
			// A second execution may schedule differently, so only the
			// verdict is compared.
			var remote []struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(raceList(t, file("online-remote.json")), &remote); err != nil {
				t.Fatal(err)
			}
			if len(remote) != 1 || remote[0].Kind != races[0].Kind {
				t.Errorf("online -server races %+v, want one %s", remote, races[0].Kind)
			}
		})
	}
}

// TestFrontendDrainsAfterAnalysisError: when the analysis fails (here
// the daemon refuses the connection) the front-end keeps reading the
// pipe, so a target that writes far more than a pipe buffer of events
// still runs to completion, and the run exits 2.
func TestFrontendDrainsAfterAnalysisError(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	prog := writeProgram(t, base, "busy", `package main

import "fmt"

var data [1 << 12]int

func main() {
	done := make(chan bool)
	go func() {
		for i := 0; i < 100; i++ {
			for j := range data {
				data[j] = i
			}
		}
		done <- true
	}()
	<-done
	fmt.Println("finished", data[1])
}
`)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "run", "-module", module, "-server", refused, prog)
	// The target outlives a killed racedetect and holds its output
	// open; WaitDelay stops waiting for it.
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("racedetect run hung after the analysis failed:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "finished 99") {
		t.Fatalf("racedetect run against a refusing daemon: %v, want exit 2 after the target finished:\n%s", err, out)
	}
}

// TestFrontendTestReportsRace: in test mode the race happens inside a
// test function of the test binary that go test starts, and its stream
// still reaches the analysis through the inherited pipe.
func TestFrontendTestReportsRace(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	pkg := writeProgram(t, base, "pkg", "package pkg\n\nvar X int\n")
	test := `package pkg

import "testing"

func TestRace(t *testing.T) {
	done := make(chan bool, 1)
	go func() {
		X = 1
		done <- true
	}()
	_ = X
	<-done
}
`
	if err := os.WriteFile(filepath.Join(pkg, "pkg_test.go"), []byte(test), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(base, "test.json")
	code, out := racedetect(t, bin, "test", "-module", module, "-json.file", report, pkg)
	if code != 1 {
		t.Fatalf("racedetect test: exit %d, want 1 (races found):\n%s", code, out)
	}
	var races []struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raceList(t, report), &races); err != nil {
		t.Fatal(err)
	}
	if len(races) != 1 {
		t.Fatalf("racedetect test found %d races, want 1:\n%s", len(races), out)
	}
}

// TestFrontendRunsInCallerDir: the program runs in the directory
// racedetect run was started in, as under go run, so a relative path
// opens the caller's file; a cache hit runs it there too.
func TestFrontendRunsInCallerDir(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	prog := writeProgram(t, base, "reader", `package main

import (
	"fmt"
	"os"
)

func main() {
	data, err := os.ReadFile("input.txt")
	if err != nil {
		fmt.Println("error:", err)
		os.Exit(1)
	}
	fmt.Printf("read %q\n", data)
}
`)
	cwd := t.TempDir()
	writeFile(t, filepath.Join(cwd, "input.txt"), "from the caller")
	for _, run := range []string{"first", "repeated"} {
		cmd := exec.Command(bin, "run", "-module", module, prog)
		cmd.Dir = cwd
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), `read "from the caller"`) {
			t.Errorf("%s run: %v, want the caller's input.txt read:\n%s", run, err, out)
		}
	}
}

// TestFrontendRunPassesCallerEnv: the program sees the caller's GOFLAGS
// and GOWORK, not the settings racedetect builds it with, on a binary
// cache miss and on a hit.
func TestFrontendRunPassesCallerEnv(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	prog := writeProgram(t, base, "env", `package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Printf("GOFLAGS=%q GOWORK=%q\n", os.Getenv("GOFLAGS"), os.Getenv("GOWORK"))
}
`)
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOFLAGS=") && !strings.HasPrefix(kv, "GOWORK=") {
			env = append(env, kv)
		}
	}
	env = append(env, "GOFLAGS=-buildvcs=false", "XDG_CACHE_HOME="+t.TempDir())
	const want = `GOFLAGS="-buildvcs=false" GOWORK=""`
	for _, run := range []string{"miss", "hit"} {
		cmd := exec.Command(bin, "run", "-module", module, prog)
		cmd.Env = env
		out, err := cmd.Output()
		if line, _, _ := strings.Cut(string(out), "\n"); err != nil || line != want {
			t.Errorf("%s: %v, output %q, want the program's line %q first", run, err, out, want)
		}
	}
}
