package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFrontendRemovesWorkDir: `racedetect run` instruments into an
// ft-instrument-* directory under TMPDIR and must remove it whether the
// run succeeds or the instrumented build fails; -keep leaves it in
// place.
func TestFrontendRemovesWorkDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds racedetect and the instrumented programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	base := t.TempDir()
	bin := filepath.Join(base, "racedetect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	module, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(base, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)

	program := func(name, src string) string {
		dir := filepath.Join(base, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	clean := program("clean", `package main

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
	broken := program("broken", `package main

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
