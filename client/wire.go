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
// predates them interoperates. Unknown fields are ignored: the "shards"
// field older clients send is dropped and the session runs on the one
// serial ingestion path, and the "fidelity" and "sampleRate" fields of
// a sampled request are dropped and the session runs full FastTrack,
// whose races are a superset of a sampled run's. One legacy request is
// refused (ErrCodeBadRequest): to resume a dropped session, since a
// fresh detector fed only the rest of a stream misses the
// synchronization before the drop and reports false races.
type Handshake struct {
	Version int    `json:"version"`
	Tool    string `json:"tool,omitempty"`        // detector name ("" = FastTrack)
	Policy  string `json:"policy,omitempty"`      // validation: off|strict|repair|drop ("" = off)
	Gran    string `json:"granularity,omitempty"` // fine|coarse ("" = fine)

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
	// Tracing grants the handshake's tracing request: the server is
	// timing this session's frames and will accept trace-ID-flagged
	// frames. A server that predates tracing leaves it false, and the
	// client then never flags a frame.
	Tracing bool `json:"tracing,omitempty"`
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
	// folds it into Dial's jittered backoff.
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
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
)
