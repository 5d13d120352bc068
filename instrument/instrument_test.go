package instrument

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fasttrack"
	"fasttrack/trace"
)

// racyProgram has one race (the read of y concurrent with the child's
// write) and one channel-synchronized pair (x, published over the
// unbuffered done channel) that must NOT be reported.
const racyProgram = `package main

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
	fmt.Sprintln(before, after)
}
`

// cleanProgram synchronizes everything with a mutex and a WaitGroup;
// zero races expected.
const cleanProgram = `package main

import (
	"fmt"
	"sync"
)

var c int

func main() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			c++
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Sprintln(c)
}
`

// chanProgram exercises buffered-channel slack: with capacity 2 the
// second send does not wait for the first receive, so the receiver-side
// write is unordered with the sender's read — one race.
const chanProgram = `package main

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
	fmt.Sprintln(r)
}
`

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(dir)
}

func instrumentSource(t *testing.T, src string) (*Result, string) {
	t.Helper()
	srcDir := t.TempDir()
	outDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(srcDir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(srcDir, outDir, Options{ModuleDir: repoRoot(t)})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	return res, outDir
}

func TestRewriteInjectsShimCalls(t *testing.T) {
	_, outDir := instrumentSource(t, racyProgram)
	data, err := os.ReadFile(filepath.Join(outDir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		`__ft "fasttrack/instrument/rt"`,
		"defer __ft.Boot()()",
		"var __ft_g __ft.G",
		"__ft_g.Fork()",
		"__ft.Begin(__ft_parent)",
		"defer __ft.End()",
		"__ft_g.W(&x)",
		"__ft_g.W(&y)",
		"__ft_g.R(&y)",
		"__ft_g.R(&x)",
		"__ft_g.ChanSend(done)",
		"__ft_g.ChanRecv(done)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("instrumented source missing %q:\n%s", want, got)
		}
	}
	gomod, err := os.ReadFile(filepath.Join(outDir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gomod), "replace fasttrack => ") {
		t.Fatalf("go.mod missing replace directive:\n%s", gomod)
	}
}

func TestRewriteSyncCalls(t *testing.T) {
	res, outDir := instrumentSource(t, cleanProgram)
	data, err := os.ReadFile(filepath.Join(outDir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		"__ft_g.Acquire(&mu)",
		"__ft_g.Release(&mu)",
		"__ft_g.WGDone(&wg)",
		"__ft_g.WGWait(&wg)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("instrumented source missing %q:\n%s", want, got)
		}
	}
	if res.Stats.SyncOps == 0 || res.Stats.Forks != 1 {
		t.Fatalf("unexpected stats: %+v", res.Stats)
	}
}

// buildInstrumented builds the generated module in outDir with
// BuildFlags, as the front-end does, and returns the binary's path.
func buildInstrumented(t *testing.T, outDir string) string {
	t.Helper()
	bin := filepath.Join(outDir, "prog")
	build := exec.Command("go", append(append([]string{"build"}, BuildFlags()...), "-o", bin, ".")...)
	build.Dir = outDir
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		src, _ := os.ReadFile(filepath.Join(outDir, "main.go"))
		t.Fatalf("go build: %v\n%s\n%s", err, out, src)
	}
	return bin
}

// runInstrumented builds and executes an instrumented module with the
// shim's trace sink, replays the trace through a fasttrack.Monitor and
// returns the number of races.
func runInstrumented(t *testing.T, src string) (races int) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	_, outDir := instrumentSource(t, src)
	bin := buildInstrumented(t, outDir)
	tracePath := filepath.Join(outDir, "prog.trace")
	run := exec.Command(bin)
	run.Env = append(os.Environ(), "FASTTRACK_MODE=trace", "FASTTRACK_TRACE="+tracePath)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("instrumented run: %v\n%s", err, out)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(tr) == 0 {
		t.Fatal("the instrumented run recorded zero events")
	}
	m := fasttrack.NewMonitor()
	if _, err := m.IngestBatch(tr); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return len(m.Races())
}

func TestInstrumentedRacyProgram(t *testing.T) {
	if races := runInstrumented(t, racyProgram); races != 1 {
		t.Fatalf("racy program: %d races, want exactly 1 (the y pair; x is channel-synchronized)", races)
	}
}

func TestInstrumentedCleanProgram(t *testing.T) {
	if races := runInstrumented(t, cleanProgram); races != 0 {
		t.Fatalf("clean program: %d races, want 0", races)
	}
}

func TestInstrumentedBufferedChannelSlack(t *testing.T) {
	if races := runInstrumented(t, chanProgram); races != 1 {
		t.Fatalf("buffered slack program: %d races, want exactly 1", races)
	}
}

// TestUnresolvedImportError checks that an import go list cannot
// resolve fails type checking with an error that names the import and
// quotes go list, not a bare exit status. GOPROXY=off keeps the module
// lookup off the network.
func TestUnresolvedImportError(t *testing.T) {
	t.Setenv("GOFLAGS", "-mod=mod")
	t.Setenv("GOPROXY", "off")
	srcDir := t.TempDir()
	src := "package main\n\nimport (\n\t\"fmt\"\n\n\tnope \"example.invalid/nope\"\n)\n\nfunc main() { fmt.Println(nope.X) }\n"
	if err := os.WriteFile(filepath.Join(srcDir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Instrument(srcDir, t.TempDir(), Options{ModuleDir: repoRoot(t)})
	if err == nil {
		t.Fatal("Instrument succeeded on an unresolvable import")
	}
	msg := err.Error()
	for _, want := range []string{"only stdlib imports are supported", "example.invalid/nope", "GOPROXY=off"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not contain %q", msg, want)
		}
	}
	if strings.Contains(msg, "open ") {
		t.Fatalf("error %q opens an empty export data path", msg)
	}
}

// TestUnsafeImport checks that unsafe, which has no export data, is
// resolved by the importer itself.
func TestUnsafeImport(t *testing.T) {
	res, _ := instrumentSource(t, `package main

import "unsafe"

var x int64

func main() { x = int64(unsafe.Sizeof(x)) }
`)
	if res.Stats.Writes != 1 {
		t.Fatalf("unexpected stats: %+v", res.Stats)
	}
}

// TestInstrumentedBuildIsReproducible instruments one package into two
// directories and builds both with BuildFlags: the binaries must be
// byte-identical, so the generated module's directory is not part of
// the build and a rebuild in a fresh directory hits the build cache.
func TestInstrumentedBuildIsReproducible(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	var bins [2][]byte
	for i := range bins {
		_, outDir := instrumentSource(t, racyProgram)
		data, err := os.ReadFile(buildInstrumented(t, outDir))
		if err != nil {
			t.Fatal(err)
		}
		bins[i] = data
	}
	if !bytes.Equal(bins[0], bins[1]) {
		t.Fatal("the same package instrumented into two directories built to different binaries")
	}
}
