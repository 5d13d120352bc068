package trace_test

// End-to-end fuzzing of the resilient analysis pipeline: arbitrary
// bytes → Scanner → Dispatcher (validating, quarantining) → FastTrack.
// The contract is no panic anywhere, exact degradation accounting, and
// under PolicyStrict the same first violation Trace.Validate reports,
// or an earlier id beyond the identifier caps.
// This lives in an external test package because it closes the loop
// through internal/rr and internal/core, which import trace.

import (
	"bytes"
	"strings"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

func runPipeline(t *testing.T, data []byte, p rr.Policy) {
	t.Helper()
	d := rr.NewDispatcher(core.New(0, 0))
	d.Policy = p
	// Small caps keep dense shadow tables tiny even when the fuzzer
	// forges huge ids; anything over the caps must be dropped, not
	// allocated.
	d.MaxTid = 1 << 8
	d.MaxTarget = 1 << 12
	sc := trace.NewScanner(bytes.NewReader(data))
	var tr trace.Trace
	for sc.Scan() {
		tr = append(tr, sc.Event())
		d.EventBatch([]trace.Event{sc.Event()})
	}
	h := d.Health()
	// The strict dispatcher and Trace.Validate run one state machine and
	// stop at the same event, for the same reason, unless the dispatcher
	// stops first, or at the same event, at an id beyond a cap.
	if p == rr.PolicyStrict {
		verr := tr.Validate()
		if got, want := errText(h.Err), errText(verr); got != want {
			capped := strings.Contains(got, "outside [0, ")
			if !capped || verr != nil && h.Err.(*trace.ValidationError).Index > verr.(*trace.ValidationError).Index {
				t.Fatalf("strict dispatcher %q, Validate %q", got, want)
			}
		}
	}
	errored := int64(0)
	if h.Err != nil {
		errored = 1
	}
	if h.Violations != h.Repaired+h.Dropped+errored {
		t.Fatalf("accounting: %d violations != %d repaired + %d dropped + %d errored",
			h.Violations, h.Repaired, h.Dropped, errored)
	}
	// Queries must stay serviceable whatever the input did.
	_ = d.Tool.Races()
	_ = d.Tool.Stats()
}

func FuzzPipeline(f *testing.F) {
	f.Add([]byte("FTRK1\n"))
	f.Add([]byte("fork 0 1\nwr 1 5\nwr 0 5\n"))
	f.Add([]byte("fork 0 1\nacq 1 m1\nacq 1 m1\nrel 1 m1\nrel 1 m1\njoin 0 1\nrel 1 m2\n"))
	var buf bytes.Buffer
	_ = trace.WriteBinary(&buf, trace.Trace{
		trace.ForkOf(0, 1), trace.Acq(1, 2), trace.Wr(1, 3), trace.Rel(1, 2),
	})
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []rr.Policy{rr.PolicyStrict, rr.PolicyRepair, rr.PolicyDrop} {
			runPipeline(t, data, p)
		}
	})
}
