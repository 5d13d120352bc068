// Package instrument is the Go-native front-end of the race detector:
// it rewrites the source of a target package so that every potentially
// shared memory access and every synchronization operation — go
// statements, sync.Mutex/RWMutex/WaitGroup/Once calls, and channel
// send/receive/close (including select and range) — reports to the
// fasttrack/instrument/rt runtime shim, then lays the rewritten
// package down as a self-contained module that builds against this
// repository via a replace directive.
//
// Records go through a per-invocation goroutine handle: every function
// body that records declares `var __ft_g __ft.G` and emits
// `__ft_g.W(&x)`, `__ft_g.Acquire(&mu)`, `__ft_g.Fork()` and so on, so
// the shim looks the calling goroutine up once per invocation rather
// than once per access. A function literal that always runs on the
// enclosing invocation's goroutine shares its handle; every other
// literal declares its own (handle.go has the rule).
//
// The rewriter is source-to-source (go/parser + go/types + go/printer)
// rather than a compiler plugin, mirroring how the paper's RoadRunner
// framework instruments JVM bytecode at load time: the program under
// test is modified, the detector is not special-cased in the runtime.
// The target is type-checked against the compiler's export data for
// its imports, which one `go list -export` run in the working directory
// reports; it is built with the same BuildFlags, so the export data
// and the build share their build cache entries.
//
// Scope and limitations (checked or documented, never silently wrong
// in the racy direction unless listed):
//
//   - the target must be a single self-contained package importing
//     only the standard library;
//   - accesses through impure paths (index or receiver expressions
//     with function calls inside) are not recorded, and loop/switch
//     condition re-evaluations are recorded once at most — missed
//     accesses can mask races, never invent them;
//   - `go f(x)` with a named callee evaluates f and x in the child
//     goroutine instead of the parent (a `go func(){...}()` literal —
//     the common form — keeps exact semantics);
//   - sends inside select are recorded after the operation commits,
//     so a matching receive can appear first in the stream; the
//     detector's accumulator fallback keeps that sound;
//   - sync/atomic is not modeled: atomic operations are plain calls,
//     so publishing data through an atomic flag (a Store in one
//     goroutine, a spinning Load in another) creates no
//     happens-before edge, and the data accesses it orders are
//     reported as a race (a false positive);
//   - under racedetect test, each TestXxx runs on a goroutine the
//     uninstrumented testing package starts; the shim adopts it with a
//     synthetic fork from the main thread and records no edge from one
//     test's end to the next test's start, so two sequential tests
//     that touch one package variable are reported as a race (a false
//     positive; ROADMAP, "Precision: racedetect test must order the
//     testing framework's goroutines");
//   - the shim keys variables by raw address and never retires an id
//     (rt's idTable, which densifies addresses, has no removal), so
//     after a GC cycle an object allocated at a dead object's address
//     inherits its shadow state, and its first access can be reported
//     as racing with the dead object's last (a false positive;
//     ROADMAP, "Precision: a freed object's address must not inherit
//     its shadow");
//   - a sync.Mutex handed off between goroutines is refused: Go lets
//     one goroutine unlock a mutex another goroutine locked, but the
//     trace's feasibility rules (trace.Validator) require the releasing
//     thread to hold the lock, so racedetect run stops with exit 2 and
//     "infeasible trace: ... thread 1 releases lock m0 it does not
//     hold" where go run -race is clean (ROADMAP, "Measure precision on
//     real Go code", known gaps);
//   - comments (including //go:* directives) are dropped from the
//     instrumented copy.
package instrument

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// shimImport is the import path of the runtime shim package.
const shimImport = "fasttrack/instrument/rt"

// shimName is the identifier the rewriter injects calls through; the
// leading underscores keep it out of the way of user identifiers.
const shimName = "__ft"

// BuildFlags returns the go command flags that both the export-data
// lookup (go list -export) and the build of the generated module (go
// build, go test) must use. -trimpath keeps the generated module's
// directory, new on every run, out of the build's action IDs, so a
// rebuild of the same source hits the build cache; and because go list
// compiles imports with the same flags, the export data it produces is
// the build's cache entries, not a second compile of the stdlib.
func BuildFlags() []string { return []string{"-trimpath"} }

// Options configures an instrumentation run.
type Options struct {
	// ModuleDir is the root of the fasttrack module (the directory
	// holding its go.mod), used for the replace directive of the
	// generated module.
	ModuleDir string
	// Test includes _test.go files and generates a TestMain wrapper
	// that boots and shuts down the shim around m.Run.
	Test bool
}

// Stats counts what the rewriter did.
type Stats struct {
	Files   int // files rewritten
	Reads   int // read records injected
	Writes  int // write records injected
	Forks   int // go statements wrapped
	ChanOps int // channel send/recv/close records
	SyncOps int // mutex/waitgroup/once records
	Skipped int // accesses skipped (impure path, unaddressable, ...)
	// Handles counts function bodies that declare a goroutine handle.
	Handles int
	// SharedClosures counts function literals that record through the
	// handle of the function they appear in instead of their own.
	SharedClosures int
}

// Result describes the instrumented copy.
type Result struct {
	Dir     string // generated module directory
	Package string // package name of the target
	Main    bool   // the target is package main
	Stats   Stats
}

// Instrument rewrites the package in srcDir into a standalone module
// under outDir. outDir must exist and be empty or freshly created. It
// runs the go command in the working directory to type-check the
// package against its imports' export data; build the module with
// BuildFlags.
func Instrument(srcDir, outDir string, opts Options) (*Result, error) {
	fset := token.NewFileSet()
	names, err := sourceFiles(srcDir, opts.Test)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("instrument: no Go files in %s", srcDir)
	}

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(srcDir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("instrument: %w", err)
		}
		switch {
		case pkgName == "" || pkgName == f.Name.Name:
			pkgName = f.Name.Name
		case f.Name.Name == pkgName+"_test":
			return nil, fmt.Errorf("instrument: external test package %s not supported", f.Name.Name)
		default:
			return nil, fmt.Errorf("instrument: multiple packages in %s: %s and %s", srcDir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := typeCheck(pkgName, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("instrument: type checking %s (only stdlib imports are supported): %w", srcDir, err)
	}

	rw := newRewriter(fset, info, pkg)
	rw.findEscaped(files)
	rw.classifyLits(files)

	res := &Result{Dir: outDir, Package: pkgName, Main: pkgName == "main"}
	hasTestMain := false
	for i, f := range files {
		rw.rewriteFile(f, res.Main)
		if opts.Test && declaresTestMain(f) {
			hasTestMain = true
		}
		var b strings.Builder
		if err := format.Node(&b, fset, f); err != nil {
			return nil, fmt.Errorf("instrument: printing %s: %w", names[i], err)
		}
		if err := os.WriteFile(filepath.Join(outDir, names[i]), []byte(b.String()), 0o644); err != nil {
			return nil, err
		}
		res.Stats.Files++
	}
	res.Stats.Reads = rw.stats.Reads
	res.Stats.Writes = rw.stats.Writes
	res.Stats.Forks = rw.stats.Forks
	res.Stats.ChanOps = rw.stats.ChanOps
	res.Stats.SyncOps = rw.stats.SyncOps
	res.Stats.Skipped = rw.stats.Skipped
	res.Stats.Handles = rw.stats.Handles
	res.Stats.SharedClosures = rw.stats.SharedClosures

	if opts.Test {
		if hasTestMain {
			return nil, fmt.Errorf("instrument: %s defines TestMain; the instrumented TestMain wrapper cannot be generated", pkgName)
		}
		wrapper := fmt.Sprintf(testMainTemplate, pkgName, shimImport)
		if err := os.WriteFile(filepath.Join(outDir, "zz_ft_main_test.go"), []byte(wrapper), 0o644); err != nil {
			return nil, err
		}
	}

	if err := writeGoMod(outDir, opts.ModuleDir); err != nil {
		return nil, err
	}
	return res, nil
}

const testMainTemplate = `package %s

import (
	"os"
	"testing"

	__ft %q
)

func TestMain(m *testing.M) {
	fin := __ft.Boot()
	code := m.Run()
	fin()
	os.Exit(code)
}
`

// sourceFiles lists the .go files to instrument, sorted for
// deterministic output.
func sourceFiles(dir string, includeTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// typeCheck type-checks files against the export data of their direct
// imports. One go list -export, run in the working directory so that
// imports resolve as they do for the go command there, compiles the
// imports the build cache lacks and names each one's export data file.
// unsafe has none; the gc importer provides it.
func typeCheck(pkgName string, fset *token.FileSet, files []*ast.File, info *types.Info) (*types.Package, error) {
	seen := map[string]bool{"unsafe": true}
	var paths []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value) // the parser rejected invalid paths
			if !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		args := append(append([]string{"list"}, BuildFlags()...), "-export", "-f", "{{.ImportPath}} {{.Export}}", "--")
		cmd := exec.Command("go", append(args, paths...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export %s: %v:\n%s", strings.Join(paths, " "), err, bytes.TrimSpace(stderr.Bytes()))
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, " ")
			exports[path] = file
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("go list -export reported no export data for %q", path)
		}
		return os.Open(exports[path])
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	return conf.Check(pkgName, fset, files, info)
}

// declaresTestMain reports whether the file defines func TestMain.
func declaresTestMain(f *ast.File) bool {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "TestMain" {
			return true
		}
	}
	return false
}

var modulePathRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// writeGoMod lays down the generated module's go.mod.
func writeGoMod(outDir, moduleDir string) error {
	gomod, err := generatedGoMod(moduleDir)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "go.mod"), gomod, 0o644)
}

// generatedGoMod returns the generated module's go.mod, which requires
// the fasttrack module by its declared path and replaces it with the
// local checkout at moduleDir.
func generatedGoMod(moduleDir string) ([]byte, error) {
	if moduleDir == "" {
		return nil, fmt.Errorf("instrument: Options.ModuleDir is required")
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("instrument: ModuleDir: %w", err)
	}
	m := modulePathRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("instrument: no module line in %s/go.mod", abs)
	}
	modPath := string(m[1])
	return fmt.Appendf(nil, "module ftinstrumented\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n",
		modPath, modPath, abs), nil
}

// shimDirs are the fasttrack module's package directories that an
// instrumented program links: the shim and every repository package it
// imports (a test checks the list against go list -deps).
var shimDirs = []string{"instrument/rt", "trace"}

// Input is one file the instrumented build depends on.
type Input struct {
	Name string // "src/", "module/" or "generated/" and the file's path there
	Data []byte
}

// Inputs returns every file the instrumented build of srcDir depends on
// besides the toolchain and the standard library: the target's source
// files as Instrument lists them, every file directly in the fasttrack
// module's shimDirs, the module's go.mod, and the generated go.mod. The
// same inputs, built by the same rewriter and toolchain with
// BuildFlags, give the same executable, so a cache of instrumented
// programs can key on them.
func Inputs(srcDir string, opts Options) ([]Input, error) {
	var in []Input
	add := func(name, path string) error {
		data, err := os.ReadFile(path)
		in = append(in, Input{Name: name, Data: data})
		return err
	}
	names, err := sourceFiles(srcDir, opts.Test)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := add("src/"+name, filepath.Join(srcDir, name)); err != nil {
			return nil, err
		}
	}
	for _, dir := range shimDirs {
		ents, err := os.ReadDir(filepath.Join(opts.ModuleDir, dir))
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if e.Type().IsRegular() {
				if err := add("module/"+dir+"/"+e.Name(), filepath.Join(opts.ModuleDir, dir, e.Name())); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := add("module/go.mod", filepath.Join(opts.ModuleDir, "go.mod")); err != nil {
		return nil, err
	}
	gomod, err := generatedGoMod(opts.ModuleDir)
	if err != nil {
		return nil, err
	}
	return append(in, Input{Name: "generated/go.mod", Data: gomod}), nil
}
