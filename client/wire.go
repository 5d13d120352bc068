// Package client is the Go client library for racedetectd, the
// streaming network ingestion daemon: it dials a daemon, opens a
// session, streams trace events in batched, CRC-framed chunks of the
// binary trace codec, and queries the session's race reports.
//
// This file defines the wire protocol shared by the client and the
// daemon (internal/svc). A connection carries exactly one session:
//
//	client                                server
//	  FrameHello  {tool, policy, ...}  →
//	              ←  FrameHelloOK {sessionId}     (or FrameError)
//	  FrameEvents {binary trace chunk} →          (repeated)
//	  FrameFlush  {seq}                →
//	              ←  FrameFlushOK {seq, events}   (all prior chunks ingested)
//	  FrameQuery  {seq}                →
//	              ←  FrameResults {seq, races, stats, health}
//	  FrameClose  {seq}                →
//	              ←  FrameCloseOK {final results} (connection ends)
//
// Frames are the trace package's length+CRC framing; every payload
// above except FrameEvents is JSON. FrameEvents payloads are complete
// binary-codec traces (magic included) written by trace.Writer and
// decoded by trace.Scanner, so the event encoding on the wire is
// byte-identical to the on-disk format. The server processes one
// session's frames strictly in order, which is what makes FlushOK a
// durability point: events acknowledged by a flush are ingested even if
// the connection dies or the daemon drains immediately afterwards.
//
// One wire frame is one server-side batch: the daemon decodes a
// FrameEvents payload and hands it to Monitor.IngestBatch in a single
// call, so the client's batch size (WithBatchSize) directly sets the
// server's per-event amortization unit.
package client

import (
	"fmt"
	"strconv"
	"strings"

	"fasttrack"
	"fasttrack/trace"
)

// ProtocolVersion is the wire protocol version; a server rejects
// handshakes with a version it does not speak.
const ProtocolVersion = 1

// Frame types of the racedetectd protocol, layered over the trace
// package's framing.
const (
	FrameHello    trace.FrameType = 1  // c→s: JSON Handshake
	FrameHelloOK  trace.FrameType = 2  // s→c: JSON HelloOK
	FrameEvents   trace.FrameType = 3  // c→s: binary trace chunk
	FrameFlush    trace.FrameType = 4  // c→s: JSON Seq
	FrameFlushOK  trace.FrameType = 5  // s→c: JSON FlushOK
	FrameQuery    trace.FrameType = 6  // c→s: JSON Seq
	FrameResults  trace.FrameType = 7  // s→c: JSON Results
	FrameClose    trace.FrameType = 8  // c→s: JSON Seq
	FrameCloseOK  trace.FrameType = 9  // s→c: JSON Results (final)
	FrameErrorMsg trace.FrameType = 10 // s→c: JSON WireError; the session has failed
)

// Handshake opens a session: it selects the detector and pipeline
// configuration the daemon builds the session's Monitor with.
//
// All post-version fields are optional JSON, so a version-1 peer that
// predates them interoperates: an old client simply never degrades
// fidelity, an old server ignores the request and runs full. Unknown
// fields are ignored the same way: the "shards" field older clients
// send is dropped and the session runs on the one serial ingestion
// path.
type Handshake struct {
	Version int    `json:"version"`
	Tool    string `json:"tool,omitempty"`        // detector name ("" = FastTrack)
	Policy  string `json:"policy,omitempty"`      // validation: off|strict|repair|drop ("" = off)
	Gran    string `json:"granularity,omitempty"` // fine|coarse ("" = fine)

	// Fidelity selects the session's fidelity mode: "full" (default),
	// "sampled" (fixed rate SampleRate), or "adaptive" (the daemon's
	// governor moves the session along the full→sampled→coarse→shed
	// ladder with load). See ParseFidelity for the accepted spellings.
	Fidelity string `json:"fidelity,omitempty"`
	// SampleRate is the sampling rate for "sampled" (and the starting/
	// ceiling rate for "adaptive"); 0 means the server default.
	SampleRate float64 `json:"sampleRate,omitempty"`

	// Epoch and ResumeOf implement reconnect-and-resume: a client that
	// lost its connection re-handshakes with ResumeOf naming its original
	// session id and Epoch strictly greater than any it used before. The
	// server refuses non-increasing epochs (ErrCodeStaleEpoch), so a
	// delayed duplicate of an earlier connection can never double-count
	// events into a live lineage. A resumed session gets a fresh detector
	// (id and lineage are for reporting; shadow state is not carried).
	Epoch    int64  `json:"epoch,omitempty"`
	ResumeOf string `json:"resumeOf,omitempty"`

	// Tracing asks the server to time this session's frames through the
	// pipeline stages and to accept the optional per-frame trace-ID
	// header field. The client stamps trace IDs only after the server
	// grants the request (HelloOK.Tracing), so a server that predates
	// the extension never sees a flagged frame.
	Tracing bool `json:"tracing,omitempty"`
	// Provenance asks the session's detector to run the provenance
	// flight recorder, so race reports in Results carry the Detailed
	// evidence (clocks, failed check, sync chain, explanation).
	Provenance bool `json:"provenance,omitempty"`
	// Detailed asks the session's detector to keep per-variable access
	// history, so race reports carry the prior access's event index
	// (Report.PrevIndex). Clients that render machine-readable reports
	// set it so a remote run's race list matches a local run of the same
	// trace byte-for-byte.
	Detailed bool `json:"detailed,omitempty"`
}

// HelloOK acknowledges a handshake.
type HelloOK struct {
	SessionID string `json:"sessionId"`
	// Fidelity and SampleRate echo the session's granted starting state,
	// which can differ from the request: under admission pressure the
	// server may force a "full" session to start sampled (ForcedSampled
	// is then true, and the session's ceiling is sampled until pressure
	// clears).
	Fidelity      string  `json:"fidelity,omitempty"`
	SampleRate    float64 `json:"sampleRate,omitempty"`
	ForcedSampled bool    `json:"forcedSampled,omitempty"`
	// Tracing grants the handshake's tracing request: the server is
	// timing this session's frames and will accept trace-ID-flagged
	// frames. A server that predates tracing leaves it false, and the
	// client then never flags a frame.
	Tracing bool `json:"tracing,omitempty"`
	// Node is the accepting daemon's fleet identity (its configured
	// node id; empty on unnamed single-node daemons). A fleet-routed
	// client records it so callers can see where a session landed.
	Node string `json:"node,omitempty"`
}

// Seq carries a client-chosen request sequence number; the matching
// reply echoes it.
type Seq struct {
	Seq int64 `json:"seq"`
}

// FlushOK acknowledges a flush: every event chunk sent before the
// flush has been ingested into the session's detector.
type FlushOK struct {
	Seq    int64 `json:"seq"`
	Events int64 `json:"events"` // events ingested so far
}

// Health is the wire form of fasttrack.Health (whose Err field is an
// error and does not round-trip through JSON).
type Health struct {
	Healthy              bool   `json:"healthy"`
	ToolDisabled         bool   `json:"toolDisabled,omitempty"`
	Panics               int64  `json:"panics,omitempty"`
	QuarantinedLocations int    `json:"quarantinedLocations,omitempty"`
	QuarantinedAccesses  int64  `json:"quarantinedAccesses,omitempty"`
	Violations           int64  `json:"violations,omitempty"`
	Repaired             int64  `json:"repaired,omitempty"`
	Dropped              int64  `json:"dropped,omitempty"`
	Synthesized          int64  `json:"synthesized,omitempty"`
	UnheldReleases       int64  `json:"unheldReleases,omitempty"`
	Err                  string `json:"err,omitempty"`
}

// HealthFrom converts a pipeline health snapshot to its wire form.
func HealthFrom(h fasttrack.Health) Health {
	w := Health{
		Healthy:              h.Healthy,
		ToolDisabled:         h.ToolDisabled,
		Panics:               h.Panics,
		QuarantinedLocations: h.QuarantinedLocations,
		QuarantinedAccesses:  h.QuarantinedAccesses,
		Violations:           h.Violations,
		Repaired:             h.Repaired,
		Dropped:              h.Dropped,
		Synthesized:          h.Synthesized,
		UnheldReleases:       h.UnheldReleases,
	}
	if h.Err != nil {
		w.Err = h.Err.Error()
	}
	return w
}

// Results is a session's analysis snapshot: the race reports, detector
// statistics, and pipeline health at the time of the query (or at
// session end, for the FrameCloseOK reply).
type Results struct {
	Seq       int64              `json:"seq,omitempty"`
	SessionID string             `json:"sessionId"`
	Tool      string             `json:"tool"`
	Events    int64              `json:"events"`
	Races     []fasttrack.Report `json:"races"`
	Stats     fasttrack.Stats    `json:"stats"`
	Health    Health             `json:"health"`
	// DetectionProbability is the fraction of offered accesses analyzed
	// at full fidelity (1.0 unless the session ran sampled/degraded); a
	// race on a sampled-out variable cannot appear in Races, so this
	// bounds per-variable detection probability. Omitted when 0 (only
	// possible on a session that never saw an access while fully shed).
	DetectionProbability float64 `json:"detectionProbability,omitempty"`
	// Detailed carries provenance-enriched race reports when the session
	// was opened with Handshake.Provenance; it mirrors Races one-to-one.
	// Absent on sessions without the flight recorder.
	Detailed []fasttrack.DetailedReport `json:"detailed,omitempty"`
}

// WireError is the payload of a FrameErrorMsg: the server's diagnosis
// of why the session failed. The connection closes after it is sent.
type WireError struct {
	Code string `json:"code"` // stable machine-readable class
	Msg  string `json:"msg"`
	// RetryAfterMillis, when positive on an admission refusal
	// (session-cap, draining), hints how long the client should wait
	// before redialing — the wire analog of HTTP Retry-After. The client
	// folds it into its jittered reconnect backoff.
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
	// Node is the refusing daemon's fleet identity, so a routed client
	// can attribute the refusal to the right node even through proxies.
	Node string `json:"node,omitempty"`
}

// Error codes carried by WireError.
const (
	ErrCodeProtocol    = "protocol"      // malformed or out-of-order frame
	ErrCodeBadFrame    = "bad-frame"     // framing/CRC failure on the connection
	ErrCodeDecode      = "decode"        // event chunk failed to decode
	ErrCodeIngest      = "ingest"        // monitor rejected events
	ErrCodeDraining    = "draining"      // daemon is shutting down
	ErrCodeSessionCap  = "session-cap"   // too many concurrent sessions
	ErrCodeUnknownTool = "unknown-tool"  // handshake named an unknown detector
	ErrCodeBadRequest  = "bad-handshake" // handshake configuration invalid
	ErrCodeStaleEpoch  = "stale-epoch"   // resume epoch not newer than the lineage's last
)

// Fidelity modes of the Handshake.Fidelity field.
const (
	FidelityFull     = "full"
	FidelitySampled  = "sampled"
	FidelityAdaptive = "adaptive"
)

// ParseFidelity parses the human spellings of a fidelity mode, as
// accepted by racedetect's -fidelity flag and racedetectd's handshake:
// "" or "full"; "adaptive"; "sampled" (server-default rate); and
// "sampled(p)" with p in (0,1], e.g. "sampled(0.1)". It returns the
// canonical mode name and the explicit rate (0 when none was given).
func ParseFidelity(s string) (mode string, rate float64, err error) {
	s = strings.TrimSpace(s)
	switch strings.ToLower(s) {
	case "", FidelityFull:
		return FidelityFull, 0, nil
	case FidelityAdaptive:
		return FidelityAdaptive, 0, nil
	case FidelitySampled:
		return FidelitySampled, 0, nil
	}
	low := strings.ToLower(s)
	if strings.HasPrefix(low, "sampled(") && strings.HasSuffix(low, ")") {
		p, perr := strconv.ParseFloat(low[len("sampled("):len(low)-1], 64)
		if perr != nil || p <= 0 || p > 1 {
			return "", 0, fmt.Errorf("client: bad sampling rate in %q (want sampled(p) with 0 < p <= 1)", s)
		}
		return FidelitySampled, p, nil
	}
	return "", 0, fmt.Errorf("client: unknown fidelity %q (want full, sampled, sampled(p), or adaptive)", s)
}
