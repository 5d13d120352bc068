// Command tracegen writes a synthetic workload trace to a file, either
// one of the paper's named benchmark shapes or a random feasible trace.
//
// Usage:
//
//	tracegen -workload tsp [-scale 1] [-format text|binary] [-o out.trace]
//	tracegen -random -events 500 -threads 4 [-seed 42] [-o out.trace]
//	tracegen -list
//
// Besides the paper's named benchmarks, "chan" generates the
// channel-heavy workload (ping-pong, bounded buffer, seeded
// buffered-slack races; DESIGN.md §14) on first-class channel events.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"fasttrack/internal/sim"
	"fasttrack/trace"
)

func main() {
	workload := flag.String("workload", "", "named benchmark workload (see -list)")
	random := flag.Bool("random", false, "generate a random feasible trace instead")
	scale := flag.Float64("scale", 1, "workload scale factor")
	format := flag.String("format", "text", "output format: text or binary")
	out := flag.String("o", "-", "output file (default stdout)")
	seed := flag.Int64("seed", 1, "seed for -random")
	events := flag.Int("events", 200, "approximate event count for -random")
	threads := flag.Int("threads", 4, "thread count for -random")
	list := flag.Bool("list", false, "list workload names and exit")
	flag.Parse()

	if *list {
		for _, b := range append(sim.Benchmarks(), sim.EclipseOps()...) {
			fmt.Printf("%s (%d threads, %d seeded races)\n", b.Name, b.Threads, b.KnownRaces())
		}
		c := sim.ChanMix()
		fmt.Printf("%s (%d threads, %d seeded races)\n", c.Name, c.Threads(), c.KnownRaces())
		return
	}

	var tr trace.Trace
	switch {
	case *random:
		cfg := sim.DefaultRandomConfig()
		cfg.Events = *events
		cfg.Threads = *threads
		tr = sim.RandomTrace(rand.New(rand.NewSource(*seed)), cfg)
	case *workload == "chan":
		tr = sim.ChanMix().Generate(*scale)
	case *workload != "":
		b, ok := sim.ByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (try -list)", *workload))
		}
		tr = b.Trace(*scale)
	default:
		fmt.Fprintln(os.Stderr, "usage: tracegen -workload NAME | -random [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if err := tr.Validate(); err != nil {
		fatal(fmt.Errorf("generated trace infeasible (bug): %w", err))
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	var err error
	switch *format {
	case "text":
		err = trace.WriteText(w, tr)
	case "binary":
		err = trace.WriteBinary(w, tr)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d events\n", len(tr))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(2)
}
