package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fasttrack/instrument"
)

// TestMain points the binary cache at a temporary directory, so tests
// neither read nor fill the developer's (os.UserCacheDir honours
// XDG_CACHE_HOME on Linux). GOCACHE defaults to a directory under
// XDG_CACHE_HOME, so it is pinned first and the build cache stays warm.
func TestMain(m *testing.M) {
	if out, err := exec.Command("go", "env", "GOCACHE").Output(); err == nil {
		os.Setenv("GOCACHE", strings.TrimSpace(string(out)))
	}
	dir, err := os.MkdirTemp("", "racedetect-cache-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Setenv("XDG_CACHE_HOME", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// copyModule copies what an instrumented build reads of the fasttrack
// module (its go.mod and the shim's packages) to dst and returns dst.
func copyModule(t *testing.T, dst string) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"instrument/rt", "trace"} {
		if err := os.MkdirAll(filepath.Join(dst, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(src, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Type().IsRegular() {
				copyFile(t, filepath.Join(src, dir, e.Name()), filepath.Join(dst, dir, e.Name()))
			}
		}
	}
	copyFile(t, filepath.Join(src, "go.mod"), filepath.Join(dst, "go.mod"))
	return dst
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, to, string(data))
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendFile(t *testing.T, path, data string) {
	t.Helper()
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, string(old)+data)
}

// TestCacheKeyCoversInputs: changing any one input of an instrumented
// build changes the cache key, and the two go env fields left out of it
// do not.
func TestCacheKeyCoversInputs(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	vars, err := goEnv(os.Environ())
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	module := copyModule(t, filepath.Join(base, "module"))
	pkg := writeProgram(t, base, "prog", "package main\n\nfunc main() {}\n")
	key := func(id string, vars map[string]string, flags []string) string {
		t.Helper()
		files, err := instrument.Inputs(pkg, instrument.Options{ModuleDir: module})
		if err != nil {
			t.Fatal(err)
		}
		return cacheKey(id, vars, flags, files)
	}
	flags := instrument.BuildFlags()
	seen := map[string]string{key("id", vars, flags): "the original"}
	changed := func(what, k string) {
		t.Helper()
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: same key as %s", what, prev)
		}
		seen[k] = what
	}

	changed("build ID", key("id2", vars, flags))
	changed("build flags", key("id", vars, append(flags, "-v")))
	for name, v := range vars {
		edited := map[string]string{}
		for n, v := range vars {
			edited[n] = v
		}
		edited[name] = v + "x"
		if name == "GOGCCFLAGS" || name == "GOMOD" {
			if k := key("id", edited, flags); k != key("id", vars, flags) {
				t.Errorf("go env %s changed the key", name)
			}
			continue
		}
		changed("go env "+name, key("id", edited, flags))
	}

	main := filepath.Join(pkg, "main.go")
	appendFile(t, main, "// edited\n")
	changed("target bytes", key("id", vars, flags))
	if err := os.Rename(main, filepath.Join(pkg, "prog.go")); err != nil {
		t.Fatal(err)
	}
	changed("target file name", key("id", vars, flags))
	writeFile(t, filepath.Join(pkg, "extra.go"), "package main\n")
	changed("added target file", key("id", vars, flags))
	appendFile(t, filepath.Join(module, "instrument", "rt", "rt.go"), "// edited\n")
	changed("a file in instrument/rt", key("id", vars, flags))
	appendFile(t, filepath.Join(module, "trace", "codec.go"), "// edited\n")
	changed("a file in trace", key("id", vars, flags))
	appendFile(t, filepath.Join(module, "go.mod"), "// edited\n")
	changed("the module's go.mod", key("id", vars, flags))
	// The generated go.mod names the module's directory: the same files
	// elsewhere change only it.
	if err := os.Rename(module, module+"2"); err != nil {
		t.Fatal(err)
	}
	module += "2"
	changed("the generated go.mod", key("id", vars, flags))
}

// TestBuildID: the build ID read from an ELF note matches go tool
// buildid, and the marker scan used elsewhere finds one in the file's
// first bytes.
func TestBuildID(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "tool", "buildid", exe).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := buildID(exe), strings.TrimSpace(string(out)); got == "" || got != want {
		t.Errorf("build ID %q, go tool buildid says %q", got, want)
	}
	fake := filepath.Join(t.TempDir(), "fake")
	writeFile(t, fake, "\x00junk"+string(buildIDMarker)+"abc/def\"\n \xff")
	if got := buildID(fake); got != "abc/def" {
		t.Errorf("scanned build ID %q, want abc/def", got)
	}
}

// cacheRun is one racedetect run of a cache test.
type cacheRun struct {
	exit   int
	output string // the program's line, first on stdout
	stats  string // the -stats line
}

// runCached runs `racedetect run -stats -module module dir` with the
// binary cache under xdg; the run must exit 0.
func runCached(t *testing.T, bin, xdg, module, dir string) cacheRun {
	t.Helper()
	r, err := tryRun(bin, xdg, module, dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// tryRun is runCached for goroutines other than the test's.
func tryRun(bin, xdg, module, dir string) (cacheRun, error) {
	cmd := exec.Command(bin, "run", "-stats", "-module", module, dir)
	cmd.Env = append(os.Environ(), "XDG_CACHE_HOME="+xdg)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	r := cacheRun{}
	r.output, _, _ = strings.Cut(stdout.String(), "\n")
	if ee, ok := err.(*exec.ExitError); ok {
		r.exit, err = ee.ExitCode(), nil
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "instrumented ") {
			r.stats = line
		}
	}
	if err == nil && (r.exit != 0 || r.stats == "") {
		err = fmt.Errorf("exit %d, stats line %q", r.exit, r.stats)
	}
	if err != nil {
		return r, fmt.Errorf("racedetect run %s: %w\n%s", dir, err, stderr.Bytes())
	}
	return r, nil
}

// cacheEntriesIn lists the entries of the binary cache under xdg.
func cacheEntriesIn(t *testing.T, xdg string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(xdg, "fasttrack", "racedetect-run"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

const printMain = `package main

import "fmt"

const answer = %d

var shared int

func main() {
	done := make(chan bool)
	go func() { shared = answer; done <- true }()
	<-done
	fmt.Println("answer", shared)
}
`

// TestCacheHitsAndRebuilds: a repeated run is a cache hit with the same
// output and -stats line; editing the target gives the new output, not
// the cached one; a comment-only edit in the module's trace package adds
// an entry.
func TestCacheHitsAndRebuilds(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	module := copyModule(t, filepath.Join(base, "module"))
	xdg := t.TempDir()
	prog := writeProgram(t, base, "prog", fmt.Sprintf(printMain, 1))

	first := runCached(t, bin, xdg, module, prog)
	if first.output != "answer 1" {
		t.Fatalf("first run printed %q", first.output)
	}
	entries := cacheEntriesIn(t, xdg)
	if len(entries) != 1 {
		t.Fatalf("cache holds %v after one run, want one entry", entries)
	}
	// A hit marks its entry as used; a rebuild would leave the old time.
	entry := filepath.Join(xdg, "fasttrack", "racedetect-run", entries[0])
	old := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(entry, old, old); err != nil {
		t.Fatal(err)
	}
	if again := runCached(t, bin, xdg, module, prog); again != first {
		t.Errorf("cached run %+v differs from the first %+v", again, first)
	}
	if info, err := os.Stat(entry); err != nil || !info.ModTime().After(old) {
		t.Errorf("second run did not use the cache entry (%v)", err)
	}

	writeFile(t, filepath.Join(prog, "main.go"), fmt.Sprintf(printMain, 2))
	if r := runCached(t, bin, xdg, module, prog); r.output != "answer 2" {
		t.Errorf("after editing the target the run printed %q, want answer 2", r.output)
	}
	if n := len(cacheEntriesIn(t, xdg)); n != 2 {
		t.Errorf("cache holds %d entries after an edit, want 2", n)
	}
	appendFile(t, filepath.Join(module, "trace", "trace.go"), "\n// A comment.\n")
	runCached(t, bin, xdg, module, prog)
	if n := len(cacheEntriesIn(t, xdg)); n != 3 {
		t.Errorf("cache holds %d entries after editing trace, want 3", n)
	}
}

// TestCacheConcurrentColdRuns: two runs that miss at once both succeed
// and leave one entry and no temporary directory.
func TestCacheConcurrentColdRuns(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	xdg := t.TempDir()
	prog := writeProgram(t, base, "prog", fmt.Sprintf(printMain, 3))
	var wg sync.WaitGroup
	var runs [2]cacheRun
	var errs [2]error
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = tryRun(bin, xdg, module, prog)
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if r.output != "answer 3" {
			t.Errorf("concurrent run printed %q", r.output)
		}
	}
	if entries := cacheEntriesIn(t, xdg); len(entries) != 1 {
		t.Errorf("two concurrent runs left %v, want one entry", entries)
	}
}

// TestCacheEvictsOldest: a write into a full cache deletes the least
// recently used entry and keeps the bound.
func TestCacheEvictsOldest(t *testing.T) {
	bin, base, module := buildRacedetect(t)
	xdg := t.TempDir()
	dir := filepath.Join(xdg, "fasttrack", "racedetect-run")
	t0 := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < cacheEntries; i++ {
		entry := filepath.Join(dir, fmt.Sprintf("old%02d", i))
		if err := os.MkdirAll(entry, 0o755); err != nil {
			t.Fatal(err)
		}
		mod := t0.Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(entry, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	runCached(t, bin, xdg, module, writeProgram(t, base, "prog", fmt.Sprintf(printMain, 4)))
	entries := cacheEntriesIn(t, xdg)
	if len(entries) != cacheEntries {
		t.Errorf("cache holds %d entries after a write past the bound, want %d", len(entries), cacheEntries)
	}
	if _, err := os.Stat(filepath.Join(dir, "old00")); !os.IsNotExist(err) {
		t.Errorf("the oldest entry survived the write: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "old01")); err != nil {
		t.Errorf("the second oldest entry was evicted: %v", err)
	}
}
