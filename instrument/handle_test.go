package instrument

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// handleCases are main-function bodies with one function literal that
// writes the package variable v. shared says whether the literal must
// record through main's handle rather than declare its own.
var handleCases = []struct {
	name   string
	body   string
	shared bool
}{
	{"called in place", `func() { v = 1 }()`, true},
	{"deferred in place", `defer func() { v = 1 }()`, true},
	{"in place with result", `n := func() int { return v }(); use(n)`, true},
	{"bound and called", `f := func() { v = 1 }; f(); f()`, true},
	{"bound and deferred", `f := func() { v = 1 }; defer f()`, true},

	{"go literal", `go func() { v = 1 }()`, false},
	{"bound and started", `f := func() { v = 1 }; f(); go f()`, false},
	{"passed", `run(func() { v = 1 })`, false},
	{"bound and passed", `f := func() { v = 1 }; f(); run(f)`, false},
	{"returned", `mk := func() func() { return func() { v = 1 } }; mk()()`, false},
	{"stored", `f := func() { v = 1 }; f(); hook = f`, false},
	{"sent", `ch := make(chan func(), 1); f := func() { v = 1 }; ch <- f; f()`, false},
	{"reassigned", `f := func() { v = 1 }; f(); f = func() {}; f()`, false},
	{"called from a nested literal", `f := func() { v = 1 }; func() { f() }()`, false},
	{"in place inside a go call", `go use(func() int { return v }())`, false},
}

const handleProgram = `package main

var v int
var hook func()

func run(f func()) { f() }
func use(int)      {}

%s
func main() {
%s}
`

// TestSharedHandleRule: main always records (v = 0), so it declares a
// handle; the literal adds a handle of its own unless it shares main's.
func TestSharedHandleRule(t *testing.T) {
	for _, c := range handleCases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(handleProgram, "", "\tv = 0\n\t"+c.body+"\n")
			res, outDir := instrumentSource(t, src)
			wantHandles, wantShared := 2, 0
			if c.shared {
				wantHandles, wantShared = 1, 1
			}
			if res.Stats.Handles != wantHandles || res.Stats.SharedClosures != wantShared {
				out, _ := os.ReadFile(filepath.Join(outDir, "main.go"))
				t.Fatalf("handles %d, shared closures %d; want %d and %d\n%s",
					res.Stats.Handles, res.Stats.SharedClosures, wantHandles, wantShared, out)
			}
		})
	}
}

// TestSharedHandleRuleCompiles builds every case of the table, one
// function each, in a single instrumented program.
func TestSharedHandleRuleCompiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	var funcs, calls strings.Builder
	for i, c := range handleCases {
		fmt.Fprintf(&funcs, "func case%d() {\n\tv = 0\n\t%s\n}\n\n", i, c.body)
		fmt.Fprintf(&calls, "\tcase%d()\n", i)
	}
	_, outDir := instrumentSource(t, fmt.Sprintf(handleProgram, funcs.String(), calls.String()))
	buildInstrumented(t, outDir)
}

// closureRaceProgram calls a :=-bound closure directly in main and also
// starts it with go f(): the child's write of shared races with main's
// second write. Had the literal shared main's handle, the child's write
// would be credited to main and the race would disappear.
const closureRaceProgram = `package main

import "sync"

var shared int

func main() {
	var wg sync.WaitGroup
	wg.Add(2)
	f := func() {
		shared = 1
		wg.Done()
	}
	f()
	go f()
	shared = 2
	wg.Wait()
}
`

func TestInstrumentedClosureStartedWithGo(t *testing.T) {
	if races := runInstrumented(t, closureRaceProgram); races != 1 {
		t.Fatalf("closure started with go: %d races, want exactly 1", races)
	}
}
