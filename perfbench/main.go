// Command perfbench is the repository benchmark. It measures the paths a
// user runs — racedetect run on a Go program, and trace sessions
// streamed to racedetectd — end to end, and in a separate traced run
// times each layer from outside by wrapping calls into each module's
// public functions with spans. perfbench/run.py builds and launches it;
// README.md in this directory describes the workloads and metrics.
//
// Usage:
//
//	perfbench -workload run-kernel|run-pipeline|daemon-stream -seed N
//	          -seconds S -trace 0|1 -root <checkout> -work <dir>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics traced).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// hardLimit bounds a whole run, whatever -seconds says; coldLimit
// replaces it until a run in this work directory has finished setting
// up, because the first one fills an empty Go build cache.
const (
	hardLimit = 170 * time.Second
	coldLimit = 850 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark invocation.
type bench struct {
	ctx     context.Context
	root    string // fasttrack checkout
	work    string // scratch directory for builds, inputs and spans
	seed    int64
	seconds time.Duration
	size    float64 // input size multiplier; 1 is the benchmark's size, tests use less
	traced  bool
	tr      *tracer // nil when untraced
	env     []string
	// sessionOps numbers daemon sessions across loops, as span op ids.
	sessionOps atomic.Int64

	res      result
	failures []string
}

func main() {
	workload := flag.String("workload", "", "run-kernel, run-pipeline or daemon-stream")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "root of the fasttrack checkout")
	work := flag.String("work", "", "scratch directory (default <root>/.bench_build/perfbench)")
	flag.Parse()

	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	rootDir, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	if *work == "" {
		*work = filepath.Join(rootDir, ".bench_build", "perfbench")
	}
	b := newBench(rootDir, *work, *seed, time.Duration(*seconds*float64(time.Second)), 1, *traced == 1)
	limit := hardLimit
	if _, err := os.Stat(b.warmMarker()); err != nil {
		limit = coldLimit
	}
	var cancel context.CancelFunc
	b.ctx, cancel = context.WithTimeout(context.Background(), limit)
	defer cancel()

	if err := b.run(*workload); err != nil {
		fatal(err)
	}
	if b.traced {
		path := filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	out, err := json.Marshal(b.finish())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func newBench(root, work string, seed int64, seconds time.Duration, size float64, traced bool) *bench {
	b := &bench{ctx: context.Background(), root: root, work: work, seed: seed, seconds: seconds, size: size, traced: traced}
	if traced {
		b.tr = newTracer()
	}
	b.env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	// Clipped, so every append(b.env, ...) copies instead of sharing.
	b.env = b.env[:len(b.env):len(b.env)]
	b.res.Metrics = map[string]metric{}
	return b
}

// run measures one workload, leaving the metrics in b.res.
func (b *bench) run(workload string) error {
	switch workload {
	case "run-kernel", "run-pipeline":
		return b.runWorkload(strings.TrimPrefix(workload, "run-"))
	case "daemon-stream":
		return b.daemonStream()
	}
	return fmt.Errorf("unknown workload %q (want run-kernel, run-pipeline or daemon-stream)", workload)
}

// finish settles the failure count and correctness of the result.
func (b *bench) finish() result {
	b.res.Failed = len(b.failures)
	b.res.Correct = b.res.Failed == 0 && b.res.Attempted > 0
	return b.res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// set records a metric, refusing values JSON cannot carry.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.failures = append(b.failures, fmt.Sprintf("metric %s is not finite", name))
		v = 0
	}
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// attempt counts one operation and records its failure, if any.
func (b *bench) attempt(err error) bool {
	b.res.Attempted++
	if err != nil {
		b.failures = append(b.failures, err.Error())
		return false
	}
	return true
}

// goCmd is a go command run in dir with the benchmark's environment.
func (b *bench) goCmd(dir string, args ...string) command {
	return command{dir: dir, env: b.env, args: append([]string{"go"}, args...)}
}

// must runs c and turns a failed or non-zero exit into an error.
func (b *bench) must(c command) (outcome, error) {
	o, err := c.run(b.ctx)
	if err == nil && o.exit != 0 {
		err = fmt.Errorf("%s exited %d:\n%s", strings.Join(c.args, " "), o.exit, o.stderr)
	}
	return o, err
}

// setup times setupReps repetitions of one, each in a fresh directory,
// records their median as setup_s, and returns the last directory.
// Untraced runs report setup_s; traced runs set up once.
func (b *bench) setup(one func(dir string) error) (string, error) {
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var times []float64
	var dir string
	for i := 0; i < reps; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		t0 := time.Now()
		if err := one(dir); err != nil {
			return "", fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if !b.traced {
		b.set("setup_s", "s", median(times))
	}
	return dir, os.WriteFile(b.warmMarker(), nil, 0o644)
}

func (b *bench) warmMarker() string { return filepath.Join(b.work, "warm") }

// build compiles the fasttrack command pkg (relative to the root) into
// dir and returns the binary's path.
func (b *bench) build(dir, pkg string) (string, error) {
	bin := filepath.Join(dir, filepath.Base(pkg))
	_, err := b.must(b.goCmd(b.root, "build", "-o", bin, "./"+pkg))
	return bin, err
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
