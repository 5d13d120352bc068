package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// run succeeds or the instrumented build fails; -keep leaves it in
// place.
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
		cmd := exec.Command(bin, append([]string{"run", "-module", module}, args...)...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("racedetect %v: %v\n%s", args, err, out)
		}
		t.Logf("racedetect %v: exit %d\n%s", args, ee.ExitCode(), out)
		return ee.ExitCode()
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

	if code := run("-keep", clean); code != 0 {
		t.Fatalf("-keep run exited %d, want 0", code)
	}
	if left := workDirs(); len(left) != 1 {
		t.Errorf("-keep run left %d work dirs, want 1: %v", len(left), left)
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
