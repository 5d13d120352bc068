// Package chaos is a fault-injection harness for the analysis pipeline:
// it corrupts valid traces in controlled ways (truncation, bit flips,
// duplicated / reordered / dropped events, out-of-protocol thread ids)
// and drives detectors through the corrupted streams via the full
// Scanner → Dispatcher(validator, quarantine) → Tool pipeline. The
// harness's contract, asserted by its tests, is that no panic escapes
// the pipeline and every degradation is accounted for in the
// dispatcher's Health snapshot.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"

	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// Mode enumerates the corruption modes.
type Mode uint8

const (
	// Truncate cuts the encoded stream at an arbitrary byte offset,
	// modeling a crashed producer or torn file.
	Truncate Mode = iota
	// BitFlip flips random bits in the encoded stream, modeling storage
	// or transport corruption (it may hit the magic, the kind bytes, or
	// mid-varint).
	BitFlip
	// DuplicateEvents re-inserts copies of random events at random
	// positions, modeling an at-least-once transport.
	DuplicateEvents
	// ReorderEvents swaps random pairs of events, breaking program order
	// and the fork/join and lock protocols.
	ReorderEvents
	// DropSyncEvents deletes random synchronization events, silently
	// removing happens-before edges (unmatched acquires/releases, joins
	// of never-forked threads).
	DropSyncEvents
	// CorruptTids rewrites random events' thread ids to unknown, joined,
	// or absurdly large ids.
	CorruptTids

	numModes
)

// Modes returns every corruption mode.
func Modes() []Mode {
	ms := make([]Mode, numModes)
	for i := range ms {
		ms[i] = Mode(i)
	}
	return ms
}

func (m Mode) String() string {
	switch m {
	case Truncate:
		return "truncate"
	case BitFlip:
		return "bitflip"
	case DuplicateEvents:
		return "duplicate"
	case ReorderEvents:
		return "reorder"
	case DropSyncEvents:
		return "drop-sync"
	case CorruptTids:
		return "corrupt-tid"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Mutate returns a corrupted binary encoding of tr. Event-level modes
// mutate the event sequence and re-encode it (a well-formed encoding of
// a protocol-violating stream); byte-level modes corrupt the encoding
// itself. The result is deterministic in rng's stream.
func Mutate(tr trace.Trace, mode Mode, rng *rand.Rand) []byte {
	switch mode {
	case Truncate:
		raw := encode(tr)
		return raw[:rng.Intn(len(raw)+1)]
	case BitFlip:
		raw := encode(tr)
		if len(raw) == 0 {
			return raw
		}
		for i := 0; i < 1+len(raw)/64; i++ {
			pos := rng.Intn(len(raw))
			raw[pos] ^= 1 << uint(rng.Intn(8))
		}
		return raw
	case DuplicateEvents:
		out := append(trace.Trace(nil), tr...)
		for i := 0; i < 1+len(tr)/20; i++ {
			if len(out) == 0 {
				break
			}
			src := out[rng.Intn(len(out))]
			at := rng.Intn(len(out) + 1)
			out = append(out[:at], append(trace.Trace{src}, out[at:]...)...)
		}
		return encode(out)
	case ReorderEvents:
		out := append(trace.Trace(nil), tr...)
		for i := 0; i < 1+len(out)/20; i++ {
			if len(out) < 2 {
				break
			}
			a, b := rng.Intn(len(out)), rng.Intn(len(out))
			out[a], out[b] = out[b], out[a]
		}
		return encode(out)
	case DropSyncEvents:
		var out trace.Trace
		for _, e := range tr {
			if e.Kind.IsSync() && rng.Intn(2) == 0 {
				continue
			}
			out = append(out, e)
		}
		return encode(out)
	case CorruptTids:
		out := append(trace.Trace(nil), tr...)
		maxTid := int32(out.Threads())
		for i := 0; i < 1+len(out)/20; i++ {
			if len(out) == 0 {
				break
			}
			at := rng.Intn(len(out))
			e := out[at]
			if e.Kind == trace.BarrierRelease {
				continue
			}
			switch rng.Intn(3) {
			case 0: // unknown but plausible tid
				e.Tid = maxTid + 1 + int32(rng.Intn(8))
			case 1: // absurd tid (beyond the validator's cap)
				e.Tid = rr.DefaultMaxTid + 1 + int32(rng.Intn(1<<10))
			case 2: // collide with another thread
				e.Tid = int32(rng.Intn(int(maxTid) + 1))
			}
			out[at] = e
		}
		return encode(out)
	default:
		return encode(tr)
	}
}

func encode(tr trace.Trace) []byte {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		// Mutations keep tids in the codec's range; a failure here is a
		// harness bug.
		panic(fmt.Sprintf("chaos: encoding mutated trace: %v", err))
	}
	return buf.Bytes()
}

// Result is the outcome of driving one tool through one corrupted
// stream.
type Result struct {
	Mode    Mode
	Tool    string
	Seed    int64
	Events  int   // events decoded and offered to the dispatcher
	Races   int   // warnings reported by the tool afterwards
	ScanErr error // decode error that ended the stream, if any
	Health  rr.Health
	Stats   rr.Stats // tool stats merged with the dispatcher's counters
}

// Run corrupts tr with the given mode and seed, then feeds the result
// through tool under the given validation policy with panic quarantine
// engaged. Run itself installs no recover: a panic escaping the
// pipeline is a bug and crashes the caller (the tests rely on that).
func Run(tool rr.Tool, tr trace.Trace, mode Mode, seed int64, policy rr.Policy) Result {
	rng := rand.New(rand.NewSource(seed))
	raw := Mutate(tr, mode, rng)

	d := rr.NewDispatcher(tool)
	d.Policy = policy
	sc := trace.NewScanner(bytes.NewReader(raw))
	n := 0
	for sc.Scan() {
		d.Event(sc.Event())
		n++
	}
	st := tool.Stats()
	d.FillStats(&st)
	return Result{
		Mode:    mode,
		Tool:    tool.Name(),
		Seed:    seed,
		Events:  n,
		Races:   len(tool.Races()),
		ScanErr: sc.Err(),
		Health:  d.Health(),
		Stats:   st,
	}
}

// Check verifies the accounting invariants of a run: every violation is
// accounted as repaired, dropped, or the strict error, the quarantine
// only reports state consistent with observed panics, and the merged
// Stats agree with the Health snapshot.
func (r Result) Check() error {
	h := r.Health
	errored := int64(0)
	if h.Err != nil {
		errored = 1
	}
	if h.Violations != h.Repaired+h.Dropped+errored {
		return fmt.Errorf("chaos %s/%s seed %d: %d violations != %d repaired + %d dropped + %d errored",
			r.Mode, r.Tool, r.Seed, h.Violations, h.Repaired, h.Dropped, errored)
	}
	if h.ToolDisabled && h.Panics == 0 {
		return fmt.Errorf("chaos %s/%s seed %d: tool disabled without any panic", r.Mode, r.Tool, r.Seed)
	}
	if int64(h.QuarantinedLocations) > h.Panics {
		return fmt.Errorf("chaos %s/%s seed %d: %d quarantined locations from %d panics",
			r.Mode, r.Tool, r.Seed, h.QuarantinedLocations, h.Panics)
	}
	if r.Stats.Violations != h.Violations || r.Stats.Panics != h.Panics {
		return fmt.Errorf("chaos %s/%s seed %d: Stats (%d violations, %d panics) disagree with Health (%d, %d)",
			r.Mode, r.Tool, r.Seed, r.Stats.Violations, r.Stats.Panics, h.Violations, h.Panics)
	}
	return nil
}

// FaultyTool wraps a Tool and injects panics, exercising the
// dispatcher's quarantine: it panics instead of delegating whenever
// PanicIf returns true.
type FaultyTool struct {
	Inner   rr.Tool
	PanicIf func(i int, e trace.Event) bool
}

var _ rr.Tool = (*FaultyTool)(nil)

// Name implements rr.Tool.
func (f *FaultyTool) Name() string { return "Faulty(" + f.Inner.Name() + ")" }

// HandleEvent implements rr.Tool, panicking when PanicIf fires.
func (f *FaultyTool) HandleEvent(i int, e trace.Event) {
	if f.PanicIf != nil && f.PanicIf(i, e) {
		panic(fmt.Sprintf("chaos: injected fault at event %d (%s)", i, e))
	}
	f.Inner.HandleEvent(i, e)
}

// Races implements rr.Tool.
func (f *FaultyTool) Races() []rr.Report { return f.Inner.Races() }

// Stats implements rr.Tool.
func (f *FaultyTool) Stats() rr.Stats { return f.Inner.Stats() }
