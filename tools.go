package fasttrack

import (
	"fmt"
	"io"
	"sort"

	"fasttrack/internal/atomicity"
	"fasttrack/internal/core"
	"fasttrack/internal/detectors/basicvc"
	"fasttrack/internal/detectors/djit"
	"fasttrack/internal/detectors/empty"
	"fasttrack/internal/detectors/epochwr"
	"fasttrack/internal/detectors/eraser"
	"fasttrack/internal/detectors/goldilocks"
	"fasttrack/internal/detectors/goodlock"
	"fasttrack/internal/detectors/multirace"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// Tool is a back-end dynamic analysis consuming an event stream; all
// seven detectors of the paper's evaluation implement it. Tools are not
// safe for concurrent use — wrap one in a Monitor for live programs.
type Tool = rr.Tool

// Prefilter is a Tool that can filter events for a downstream analysis
// (Section 5.2 of the paper).
type Prefilter = rr.Prefilter

// Report is one race warning.
type Report = rr.Report

// DetailedReport is a race warning enriched by the provenance flight
// recorder (Hints.Provenance): vector-clock snapshots of both accesses,
// the exact happens-before comparison that failed, the racing threads'
// recent release/acquire chains, and a rendered "why this is a race"
// explanation. See Monitor.DetailedRaces.
type DetailedReport = rr.DetailedReport

// SyncRecord is one entry of a DetailedReport's sync chain: a recent
// synchronization operation of one of the racing threads.
type SyncRecord = rr.SyncRecord

// Stats are a tool's instrumentation counters (vector clocks allocated,
// O(n) vector-clock operations, per-rule hit counts, shadow bytes).
type Stats = rr.Stats

// RaceKind classifies a warning.
type RaceKind = rr.RaceKind

// Race kinds.
const (
	WriteWrite       = rr.WriteWrite
	WriteRead        = rr.WriteRead
	ReadWrite        = rr.ReadWrite
	LockSetViolation = rr.LockSetViolation
)

// Granularity selects fine (per-variable) or coarse (per-object) shadow
// locations; see the paper's Section 4 and Table 3.
type Granularity = rr.Granularity

// Granularities.
const (
	Fine   = rr.Fine
	Coarse = rr.Coarse
)

// FieldsPerObject is the coarse-granularity grouping factor.
const FieldsPerObject = rr.FieldsPerObject

// Policy selects how the event pipeline responds to malformed streams:
// ignore the problem (PolicyOff, the default, which still drops
// releases with no matching acquire and stops at an id beyond the
// identifier caps), stop at the first violation
// (PolicyStrict), synthesize the missing protocol events and continue
// (PolicyRepair), or skip offending events (PolicyDrop). See the rr
// package for the exact checks.
type Policy = rr.Policy

// Validation policies.
const (
	PolicyOff    = rr.PolicyOff
	PolicyStrict = rr.PolicyStrict
	PolicyRepair = rr.PolicyRepair
	PolicyDrop   = rr.PolicyDrop
)

// Health is a degradation snapshot of an analysis pipeline: recovered
// tool panics, quarantined shadow locations, and stream-validation
// accounting. A fully healthy pipeline has Healthy == true.
type Health = rr.Health

// MetricsSnapshot is a point-in-time copy of a pipeline's metrics
// registry: counters, gauges, and histograms keyed by name (rr.* for
// the dispatcher's live pipeline metrics, tool.* for the detector's
// counters). It marshals to stable JSON; see Monitor.Metrics.
type MetricsSnapshot = obs.Snapshot

// Hints carries optional capacity hints and feature toggles for a
// detector; zero values are fine.
type Hints struct {
	Threads int
	Vars    int
	// DetailedReports makes FastTrack track per-variable access history
	// so reports carry PrevIndex (the prior racing access's event
	// position). Other detectors ignore it.
	DetailedReports bool
	// Provenance enables FastTrack's flight recorder (implying
	// DetailedReports): bounded per-thread rings of recent sync
	// operations plus a per-variable last-access record, so each race is
	// enriched into a DetailedReport explaining why happens-before
	// failed. Costs roughly one vector-clock copy per non-redundant
	// access while enabled (see BENCH_provenance.json); other detectors
	// ignore it.
	Provenance bool
}

// toolMakers maps canonical tool names to constructors.
var toolMakers = map[string]func(h Hints) Tool{
	"FastTrack": func(h Hints) Tool {
		d := core.New(h.Threads, h.Vars)
		if h.DetailedReports {
			d.EnableDetailedReports()
		}
		if h.Provenance {
			d.EnableProvenance()
		}
		return d
	},
	"DJIT+":      func(h Hints) Tool { return djit.New(h.Threads, h.Vars) },
	"BasicVC":    func(h Hints) Tool { return basicvc.New(h.Threads, h.Vars) },
	"Eraser":     func(h Hints) Tool { return eraser.New(h.Threads, h.Vars) },
	"MultiRace":  func(h Hints) Tool { return multirace.New(h.Threads, h.Vars) },
	"Goldilocks": func(h Hints) Tool { return goldilocks.New(h.Threads, h.Vars) },
	"Empty":      func(h Hints) Tool { return empty.New() },
	// WriteEpochsOnly is the Section 3 intermediate design point (write
	// epochs, non-adaptive read vector clocks) kept as an ablation.
	"WriteEpochsOnly": func(h Hints) Tool { return epochwr.New(h.Threads, h.Vars) },
	"TL":              func(h Hints) Tool { return empty.NewTL(h.Vars) },
	// The Section 5.2 downstream checkers are Tools too: they consume
	// TxBegin/TxEnd transaction markers (emitted by the workload
	// generators and the mini language's atomic blocks).
	// Goodlock is the lock-order (potential deadlock) analysis.
	"Goodlock":    func(h Hints) Tool { return goodlock.New(h.Threads, h.Vars) },
	"Atomizer":    func(h Hints) Tool { return atomicity.NewAtomizer() },
	"Velodrome":   func(h Hints) Tool { return atomicity.NewVelodrome() },
	"SingleTrack": func(h Hints) Tool { return atomicity.NewSingleTrack() },
}

// ToolNames returns the canonical names accepted by NewTool, sorted.
func ToolNames() []string {
	names := make([]string, 0, len(toolMakers))
	for n := range toolMakers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewTool constructs a detector by name. Recognized names are those
// ToolNames returns (racedetect -list prints them).
func NewTool(name string, h Hints) (Tool, error) {
	mk, ok := toolMakers[name]
	if !ok {
		return nil, fmt.Errorf("fasttrack: unknown tool %q (have %v)", name, ToolNames())
	}
	return mk(h), nil
}

// Compose chains a prefilter tool in front of a downstream tool, the
// analog of RoadRunner's "-tool FastTrack:Velodrome" (Section 5.2). The
// prefilter must be one of the Prefilter-capable tools ("FastTrack",
// "DJIT+", "Eraser", "TL").
func Compose(pre Prefilter, back Tool) Tool {
	return &rr.Pipeline{Pre: pre, Back: back}
}

// Recorder is a Tool that captures the event stream it is fed; pair it
// with Tee and a Monitor to record a live program's trace for later
// replay through other detectors or for writing with the trace codecs.
type Recorder = rr.Recorder

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return rr.NewRecorder() }

// Tee fans one event stream out to several tools, running multiple
// analyses in a single pass.
func Tee(tools ...Tool) Tool { return rr.NewTee(tools...) }

// StreamRecorder is a Tool that encodes the event stream directly to a
// trace.Writer; see NewStreamRecorder.
type StreamRecorder = rr.StreamRecorder

// NewStreamRecorder returns a Tool that writes every event to w in the
// given trace format, without buffering the trace in memory. Call its
// Flush method when monitoring ends.
func NewStreamRecorder(w io.Writer, format trace.Format) *StreamRecorder {
	return rr.NewStreamRecorder(trace.NewWriter(w, format))
}

// Replay feeds a recorded trace through a tool at the given granularity,
// applying the framework services (re-entrant lock filtering, wait
// expansion), and returns the tool's warnings.
func Replay(tr trace.Trace, tool Tool, g Granularity) []Report {
	d := rr.NewDispatcher(tool)
	d.Granularity = g
	d.Feed(tr)
	return tool.Races()
}

// ReplayStream analyzes a trace incrementally from a reader (text or
// binary format, auto-detected) without materializing it in memory.
// When validate is true the dispatcher checks each event against the
// feasibility constraints of the paper's Section 2.1 before analysis
// (PolicyStrict), and the first infeasible one stops the stream with
// its error. Validated or not, so does an id beyond the identifier
// caps. It returns the tool's warnings and the number of events processed:
// those before the stopping event, if any.
func ReplayStream(r io.Reader, tool Tool, g Granularity, validate bool) ([]Report, int, error) {
	d := rr.NewDispatcher(tool)
	d.Granularity = g
	if validate {
		d.Policy = rr.PolicyStrict
	}
	sc := trace.NewScanner(r)
	batch := make([]trace.Event, 0, replayStreamBatch)
	for {
		batch = sc.ScanBatch(batch[:0], replayStreamBatch)
		d.EventBatch(batch)
		if err := d.Err(); err != nil {
			return tool.Races(), err.(*trace.ValidationError).Index, err
		}
		if len(batch) < replayStreamBatch {
			return tool.Races(), sc.Index(), sc.Err()
		}
	}
}

// replayStreamBatch is how many events ReplayStream decodes and dispatches at
// once.
const replayStreamBatch = 1024
