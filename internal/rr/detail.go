package rr

import (
	"fmt"
	"strings"
)

// DetailedReport enriches a Report with the provenance evidence the
// flight recorder captured: the vector-clock snapshots of both
// accesses, the exact happens-before comparison that failed, the most
// recent synchronization operations of the two racing threads, and a
// rendered "why this is a race" explanation. Tools produce it only when
// provenance recording is enabled (see core.Detector.EnableProvenance);
// the enrichment never changes which races are reported, only what each
// report carries.
type DetailedReport struct {
	Report

	// AccessClock is the racing thread's vector clock at the second
	// access, indexed by tid (trailing zero entries trimmed).
	AccessClock []uint64 `json:"accessClock,omitempty"`
	// PrevClock is the prior accessor's vector clock snapshot taken at
	// its access, when the recorder captured one. For a read-write race
	// against a read-shared variable the snapshot belongs to the
	// specific reader named by PrevTid.
	PrevClock []uint64 `json:"prevClock,omitempty"`
	// PrevEpoch is the prior access's epoch rendered "c@t".
	PrevEpoch string `json:"prevEpoch,omitempty"`
	// FailedCheck is the FastTrack happens-before comparison that
	// failed, e.g. "W_x3 = 2@1 > C_2[1] = 0".
	FailedCheck string `json:"failedCheck,omitempty"`
	// SyncChain lists the most recent synchronization operations
	// recorded for the two racing threads, oldest first — the
	// release/acquire history that failed to order the two accesses.
	SyncChain []SyncRecord `json:"syncChain,omitempty"`
	// Explanation is the rendered multi-line "why this is a race" text.
	Explanation string `json:"explanation,omitempty"`
}

// SyncRecord is one entry of a thread's provenance ring: a recent
// synchronization operation with the thread's epoch at the time.
type SyncRecord struct {
	Index  int    `json:"index"`           // event index in the trace
	Tid    int32  `json:"tid"`             // thread that performed the operation
	Op     string `json:"op"`              // "acquire", "release", "fork", ...
	Target uint64 `json:"target"`          // lock/volatile id, or peer tid for fork/join
	Clock  string `json:"clock,omitempty"` // thread's epoch at the time, "c@t"
}

// DetailedTool is implemented by tools whose provenance recorder can
// enrich race reports. DetailedRaces returns one DetailedReport per
// Races() entry, in the same order; the embedded Reports are identical
// to what Races() returns.
type DetailedTool interface {
	Tool
	DetailedRaces() []DetailedReport
}

// FormatClock renders a vector clock as "[tid:clock ...]" listing only
// nonzero components, the notation used throughout explanations.
func FormatClock(c []uint64) string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for t, v := range c {
		if v == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", t, v)
	}
	b.WriteByte(']')
	return b.String()
}

// Render builds the human-readable explanation from the structured
// fields. The detector calls it once at report time and stores the
// result in Explanation, so consumers (text output, JSON, HTTP) never
// re-derive it.
func (d *DetailedReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on x%d: thread %d's access (event %d) is concurrent with thread %d's",
		d.Kind, d.Var, d.Tid, d.Index, d.PrevTid)
	if d.PrevIndex >= 0 {
		fmt.Fprintf(&b, " (event %d)", d.PrevIndex)
	}
	b.WriteByte('\n')
	if d.FailedCheck != "" {
		fmt.Fprintf(&b, "  failed happens-before check: %s\n", d.FailedCheck)
	}
	fmt.Fprintf(&b, "  racing thread's clock: C_%d = %s\n", d.Tid, FormatClock(d.AccessClock))
	if len(d.PrevClock) > 0 {
		fmt.Fprintf(&b, "  prior accessor's clock: C_%d = %s", d.PrevTid, FormatClock(d.PrevClock))
		if d.PrevEpoch != "" {
			fmt.Fprintf(&b, " (access at %s)", d.PrevEpoch)
		}
		b.WriteByte('\n')
	} else if d.PrevEpoch != "" {
		fmt.Fprintf(&b, "  prior access epoch: %s\n", d.PrevEpoch)
	}
	if len(d.SyncChain) > 0 {
		fmt.Fprintf(&b, "  recent synchronization:\n")
		for _, s := range d.SyncChain {
			fmt.Fprintf(&b, "    event %d: thread %d %s %d", s.Index, s.Tid, s.Op, s.Target)
			if s.Clock != "" {
				fmt.Fprintf(&b, " at %s", s.Clock)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "  no release/acquire, fork/join, volatile, or barrier chain orders the prior access before the racing one")
	return b.String()
}
