package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// Session states. A session is live in stateStreaming and terminal in
// every other state; terminal states are reached exactly once, in the
// worker goroutine, via finalize.
const (
	stateStreaming   int32 = iota
	stateCompleted         // client sent FrameClose and got its final results
	stateDrained           // finalized by a server drain (Shutdown)
	stateLost              // connection ended without a close frame
	stateEvicted           // idle timeout
	stateFailed            // protocol, decode, or ingest error
	stateQuarantined       // watchdog isolated a wedged session (see watchdog.go)
)

var stateNames = map[int32]string{
	stateStreaming:   "streaming",
	stateCompleted:   "completed",
	stateDrained:     "drained",
	stateLost:        "lost",
	stateEvicted:     "evicted",
	stateFailed:      "failed",
	stateQuarantined: "quarantined",
}

// qitem is one unit of worker input: a frame, or a terminal marker
// (err != nil or terminal == true) enqueued by the reader when the
// connection ends.
type qitem struct {
	t        trace.FrameType
	payload  []byte
	err      error // terminal: the reader's exit cause (nil on FrameClose)
	terminal bool

	// Tracing fields, populated by the reader only on traced sessions:
	// when the frame arrived, the gap since the session's previous frame
	// (the span's "wire" stage), and the client-stamped trace ID.
	recv    int64
	gap     int64
	traceID uint64
}

// session is one connection's analysis state.
type session struct {
	id     string
	srv    *Server
	conn   net.Conn
	mon    *fasttrack.Monitor
	tool   string // the detector's canonical name
	hello  client.Handshake
	remote string // client address, kept for logs after conn closes
	traced bool   // server tracing on AND the handshake asked for it

	wmu sync.Mutex // serializes reply frames onto conn
	fw  *trace.FrameWriter

	queue chan qitem

	state      atomic.Int32
	events     atomic.Int64
	frames     atomic.Int64 // event-chunk frames accepted
	bytes      atomic.Int64
	lastActive atomic.Int64 // unix nanos
	started    time.Time
	errMsg     atomic.Value // string: failure cause

	closeQ sync.Once
	doneCh chan struct{} // closed by finalize
	queueD *obs.Gauge

	// The frame decoder and its output, reused across event chunks and
	// touched only by the worker goroutine (ingestChunk). The worker
	// frees them when it exits, so a retained finished session holds
	// only its results.
	payload bytes.Reader
	sc      *trace.Scanner
	scratch []trace.Event

	busySince atomic.Int64 // srv.now() when the worker dequeued its current item; 0 while idle (see watchdog.go)
	raceN     atomic.Int64 // last race count successfully read off the monitor

	abortCh chan struct{} // closed by quarantine; unblocks the reader
	wgOnce  sync.Once     // releases the worker's WaitGroup slot exactly once
}

func newSession(srv *Server, id string, conn net.Conn, fw *trace.FrameWriter,
	mon *fasttrack.Monitor, h client.Handshake, tool string) *session {
	sess := &session{
		id:      id,
		srv:     srv,
		conn:    conn,
		remote:  conn.RemoteAddr().String(),
		traced:  srv.cfg.Tracing && h.Tracing,
		fw:      fw,
		mon:     mon,
		tool:    tool,
		hello:   h,
		queue:   make(chan qitem, srv.cfg.QueueDepth),
		started: time.Now(),
		doneCh:  make(chan struct{}),
		abortCh: make(chan struct{}),
		queueD:  srv.reg.Gauge("svc.session." + id + ".queueDepth"),
	}
	sess.lastActive.Store(time.Now().UnixNano())
	return sess
}

// workerDone releases the worker goroutine's WaitGroup slot exactly
// once: normally from the worker's own defer, or on its behalf from
// quarantine when the worker is wedged and drain must not wait for it.
func (sess *session) workerDone() { sess.wgOnce.Do(sess.srv.wg.Done) }

func (sess *session) stateName() string { return stateNames[sess.state.Load()] }

func (sess *session) done() bool {
	select {
	case <-sess.doneCh:
		return true
	default:
		return false
	}
}

// closeQueue ends the worker's input exactly once.
func (sess *session) closeQueue() { sess.closeQ.Do(func() { close(sess.queue) }) }

// readLoop parses frames off the connection and enqueues them for the
// worker; it runs on the connection's accept goroutine and owns the
// queue's producer side. It never touches the Monitor. The idle timeout
// is enforced by the idleConn the FrameReader wraps: each arriving byte
// refreshes the deadline, so a deadline expiry here means the client
// sent nothing at all for a full idle interval.
func (sess *session) readLoop(fr *trace.FrameReader) {
	defer sess.closeQueue()
	var lastRecv int64 // previous frame's arrival, for the "wire" gap
	for {
		t, payload, err := fr.ReadFrame()
		if err != nil {
			// errors.As, not a type assertion: the FrameReader wraps a
			// deadline expiry that lands mid-frame ("frame N payload:
			// ..."), and a client that froze inside a frame is exactly as
			// idle as one that froze between frames — both are evictions,
			// not protocol failures.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !sess.srv.draining.Load() {
				err = errIdleEvicted
			}
			sess.enqueue(qitem{terminal: true, err: err})
			return
		}
		now := time.Now().UnixNano()
		sess.lastActive.Store(now)
		sess.srv.sm.framesTotal.Inc()
		// 9 = frame header (5) + CRC trailer (4) wire overhead.
		sess.srv.sm.bytesTotal.Add(int64(len(payload)) + 9)
		it := qitem{t: t, payload: payload}
		if sess.traced {
			it.recv, it.traceID = now, fr.TraceID()
			if lastRecv != 0 {
				it.gap = now - lastRecv
			}
			lastRecv = now
		}
		if !sess.enqueue(it) {
			return // quarantined; the deferred closeQueue lets an unwedged worker exit
		}
		if t == client.FrameClose {
			// The worker finalizes and closes the connection; reading
			// further would only race with that.
			sess.enqueue(qitem{terminal: true})
			return
		}
	}
}

// enqueue hands one item to the worker, blocking when the queue is
// full: the reader stops reading, the TCP window fills, and the
// client's sender stalls — bounded memory under a slow analysis. It
// returns false (abandoning the item) when the session is quarantined,
// so a reader blocked against a wedged worker's full queue can always
// exit. Only the reader goroutine calls it, which is what makes the
// deferred closeQueue after a false return safe.
func (sess *session) enqueue(it qitem) bool {
	select {
	case sess.queue <- it:
	default:
		if !it.terminal {
			sess.srv.sm.stalls.Inc()
		}
		select {
		case sess.queue <- it:
		case <-sess.abortCh:
			return false
		}
	}
	d := len(sess.queue)
	sess.queueD.Set(int64(d))
	sess.srv.sm.queuePeak.Max(int64(d))
	return true
}

// workerLoop is the session's single consumer: it drains the queue in
// order, ingesting event chunks and answering control frames, then
// finalizes the session. After a failure it keeps draining (discarding)
// so a reader blocked on a full queue can always finish.
func (sess *session) workerLoop() {
	var (
		terminalErr  error
		sawClose     bool
		failed       bool
		failureCause error
	)
	for it := range sess.queue {
		sess.busySince.Store(sess.srv.now())
		sess.queueD.Set(int64(len(sess.queue)))
		if it.terminal {
			terminalErr = it.err
		} else if failed || sawClose {
			// draining only
		} else if err := sess.handleFrame(it); err != nil {
			failed = true
			failureCause = err
			sess.fail(err)
		} else if it.t == client.FrameClose {
			sawClose = true
			sess.conn.Close()
		}
		sess.busySince.Store(0)
	}
	sess.payload.Reset(nil)
	sess.sc, sess.scratch = nil, nil

	switch {
	case failed:
		sess.finalize(stateFailed, failureCause)
	case sawClose:
		sess.finalize(stateCompleted, nil)
	case errors.Is(terminalErr, errIdleEvicted):
		sess.srv.sm.sessionsEvicted.Inc()
		sess.conn.Close()
		sess.finalize(stateEvicted, terminalErr)
	case sess.srv.draining.Load():
		sess.finalize(stateDrained, nil)
	case terminalErr != nil && !isDisconnect(terminalErr):
		// The stream itself was bad (CRC mismatch, oversized frame):
		// tell the client before finalizing as failed.
		sess.sendError(fmt.Errorf("%s: %v", client.ErrCodeBadFrame, terminalErr))
		sess.linger()
		sess.finalize(stateFailed, terminalErr)
	default:
		sess.finalize(stateLost, terminalErr)
	}
}

// isDisconnect reports whether a read error is a lost connection
// rather than a damaged stream: an end of stream between frames or
// inside one (the peer went away mid-write), a reset, or a closed
// socket.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, net.ErrClosed)
}

// handleFrame processes one frame in the worker; a non-nil error fails
// the session.
func (sess *session) handleFrame(it qitem) error {
	switch it.t {
	case client.FrameEvents:
		var dequeued int64 // tracing: when the worker picked the frame up
		if sess.traced {
			dequeued = time.Now().UnixNano()
		}
		n, decodeNs, detectNs, err := sess.ingestChunk(it.payload)
		sess.events.Add(n)
		sess.srv.sm.eventsTotal.Add(n)
		if err != nil {
			return err
		}
		sess.frames.Add(1)
		sess.bytes.Add(int64(len(it.payload)))
		if sess.traced {
			sess.recordSpan(it, dequeued, decodeNs, detectNs)
		}
		return nil
	case client.FrameFlush:
		var q client.Seq
		if err := json.Unmarshal(it.payload, &q); err != nil {
			return fmt.Errorf("%s: malformed flush: %v", client.ErrCodeProtocol, err)
		}
		return sess.reply(client.FrameFlushOK, client.FlushOK{Seq: q.Seq, Events: sess.events.Load()})
	case client.FrameQuery:
		var q client.Seq
		if err := json.Unmarshal(it.payload, &q); err != nil {
			return fmt.Errorf("%s: malformed query: %v", client.ErrCodeProtocol, err)
		}
		return sess.reply(client.FrameResults, sess.results(q.Seq))
	case client.FrameClose:
		var q client.Seq
		json.Unmarshal(it.payload, &q) // seq optional on close
		return sess.reply(client.FrameCloseOK, sess.results(q.Seq))
	case client.FrameHello:
		return fmt.Errorf("%s: duplicate hello", client.ErrCodeProtocol)
	default:
		return fmt.Errorf("%s: unexpected frame type %d", client.ErrCodeProtocol, it.t)
	}
}

// ingestChunk decodes one event-chunk payload (a complete binary trace)
// with the session's one Scanner, Reset onto the payload, into its
// reused scratch buffer, and ingests it as a single batch: one wire
// frame is one Monitor.IngestBatch call, so the per-event lock and
// dispatch bookkeeping is amortized across the frame. In steady state
// it allocates nothing. Every session, whatever its policy, is held to
// the validator's identifier caps (rr.DefaultMaxTid, rr.DefaultMaxTarget):
// one absurd id would make the detector's dense tables allocate without
// bound and take the whole daemon down, so an event past a cap fails its
// session as undecodable. It returns how many events were ingested even
// on error, so accounting stays exact. On traced sessions it also times
// the decode and detect stages (both 0 otherwise).
func (sess *session) ingestChunk(payload []byte) (n, decodeNs, detectNs int64, err error) {
	var t0 int64
	if sess.traced {
		t0 = time.Now().UnixNano()
	}
	sess.payload.Reset(payload)
	if sess.sc == nil {
		sess.sc = trace.NewScanner(&sess.payload)
	} else {
		sess.sc.Reset(&sess.payload)
	}
	sc := sess.sc
	events := sess.scratch[:0]
	for sc.Scan() {
		events = append(events, sc.Event())
	}
	sess.scratch = events // keep the grown buffer for the next frame
	derr := sc.Err()
	if i, msg := rr.CapViolation(events, rr.DefaultMaxTid, rr.DefaultMaxTarget); i >= 0 {
		derr = fmt.Errorf("event %d (%s): %s", sess.events.Load()+int64(i), events[i], msg)
		events = events[:i]
	}
	var t1 int64
	if sess.traced {
		t1 = time.Now().UnixNano()
		decodeNs = t1 - t0
	}
	if derr != nil {
		// The frame's CRC passed but the payload is malformed or names an
		// id past a cap. Ingest the prefix before the bad event so
		// accounting matches the per-event path, then fail the session.
		k, _ := sess.mon.IngestBatch(events)
		return int64(k), decodeNs, 0, fmt.Errorf("%s: chunk %d: %v", client.ErrCodeDecode, sess.frames.Load(), derr)
	}
	k, ierr := sess.mon.IngestBatch(events)
	if sess.traced {
		detectNs = time.Now().UnixNano() - t1
	}
	if ierr != nil {
		return int64(k), decodeNs, detectNs, fmt.Errorf("%s: %v", client.ErrCodeIngest, ierr)
	}
	return int64(k), decodeNs, detectNs, nil
}

// recordSpan publishes one traced event frame's span: "wire" is the
// arrival gap since the session's previous frame, "queue" the wait in
// the session queue, "decode"/"detect" from ingestChunk, and "callback"
// the post-ingest remainder (accounting).
// Frames whose processing latency (everything but "wire") crosses the
// slow threshold are also kept in the slow-frame log.
func (sess *session) recordSpan(it qitem, dequeued, decodeNs, detectNs int64) {
	now := time.Now().UnixNano()
	sp := obs.Span{TraceID: it.traceID, Label: sess.id, Seq: sess.frames.Load(), Start: it.recv}
	sp.AddStage("wire", it.gap)
	sp.AddStage("queue", dequeued-it.recv)
	sp.AddStage("decode", decodeNs)
	sp.AddStage("detect", detectNs)
	sp.AddStage("callback", now-dequeued-decodeNs-detectNs)
	srv := sess.srv
	srv.spans.Record(sp)
	st := srv.stage
	st.wire.Observe(it.gap)
	st.queue.Observe(dequeued - it.recv)
	st.decode.Observe(decodeNs)
	st.detect.Observe(detectNs)
	st.callback.Observe(now - dequeued - decodeNs - detectNs)
	if now-it.recv >= slowFrameThreshold.Nanoseconds() {
		srv.slow.Record(sp)
	}
}

// results snapshots the session's analysis state for a reply, a query
// endpoint, or a report. A quarantined session's monitor is off-limits
// (the wedged worker may hold its lock forever), so the snapshot is
// built from the lock-free counters only.
func (sess *session) results(seq int64) client.Results {
	var res client.Results
	if sess.state.Load() == stateQuarantined {
		msg, _ := sess.errMsg.Load().(string)
		res = client.Results{Tool: sess.tool, Health: client.Health{Err: "quarantined: " + msg}}
	} else {
		res = client.ResultsOf(sess.mon, sess.tool, sess.hello.Provenance)
	}
	res.Seq, res.SessionID, res.Events = seq, sess.id, sess.events.Load()
	return res
}

// statsBudget bounds how long an HTTP stats read will retry a contended
// monitor lock before answering with a busy placeholder. Normal
// contention (a worker mid-batch) clears in microseconds; a wedged
// worker never clears, and the budget is what keeps the handler from
// inheriting the wedge.
const statsBudget = 100 * time.Millisecond

// tryStats snapshots the monitor's stats and health without ever
// blocking on its lock. The quarantine check and the lock acquisition
// race against the watchdog: a session can be quarantined between any
// state check and a blocking Stats() call, leaving the caller parked
// behind a monitor lock the wedged worker never releases. So the loop
// re-checks the state before every non-blocking TryStats attempt — if
// the watchdog wins the race at any point, the next iteration sees
// stateQuarantined and answers from the lock-free counters; if the lock
// is merely busy, it retries until the budget runs out. ok is false on
// the quarantined and budget-exhausted fallbacks.
func (sess *session) tryStats(budget time.Duration) (fasttrack.Stats, client.Health, bool) {
	deadline := time.Now().Add(budget)
	for {
		if sess.state.Load() == stateQuarantined {
			msg, _ := sess.errMsg.Load().(string)
			return fasttrack.Stats{}, client.Health{Err: "quarantined: " + msg}, false
		}
		if st, hl, ok := sess.mon.TryStats(); ok {
			return st, client.HealthFrom(hl), true
		}
		if !time.Now().Before(deadline) {
			return fasttrack.Stats{}, client.Health{Err: "stats unavailable: monitor lock busy"}, false
		}
		time.Sleep(time.Millisecond)
	}
}

// raceCount reports the warning count without ever blocking on the
// monitor lock — the same watchdog/wedge race as tryStats (a plain
// Races() call from a listing parked the whole /sessions response
// behind a wedged worker's lock). A quarantined session or a lock still
// busy at the budget answers the last successfully observed count:
// slightly stale data instead of an unbounded hang.
func (sess *session) raceCount(budget time.Duration) int {
	deadline := time.Now().Add(budget)
	for {
		if sess.state.Load() == stateQuarantined {
			return int(sess.raceN.Load())
		}
		if rs, ok := sess.mon.TryRaces(); ok {
			sess.raceN.Store(int64(len(rs)))
			return len(rs)
		}
		if !time.Now().Before(deadline) {
			return int(sess.raceN.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// reply serializes one frame onto the connection.
func (sess *session) reply(t trace.FrameType, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	sess.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return sess.fw.WriteFrame(t, b)
}

// fail sends a best-effort error frame and severs the connection; the
// worker keeps draining and finalize records the cause. Like linger, it
// does not reset a client that is still writing: the write side closes
// at once (FIN follows the error frame) while the reader goes on
// reading, so the client reads the error frame instead of failing
// with "broken pipe", and the connection closes once the client does
// or lingerTimeout passes.
func (sess *session) fail(cause error) {
	sess.sendError(cause)
	if cw, ok := sess.conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		time.AfterFunc(lingerTimeout, func() { sess.conn.Close() })
		return
	}
	sess.conn.Close()
}

// sendError counts the failure and sends a best-effort error frame.
func (sess *session) sendError(cause error) {
	sess.srv.sm.errorsTotal.Inc()
	code, msg := client.ErrCodeProtocol, cause.Error()
	if c, m, ok := cutCode(msg); ok {
		code, msg = c, m
	}
	sess.reply(client.FrameErrorMsg, client.WireError{Code: code, Msg: msg})
}

// lingerTimeout bounds how long linger drains a failed connection.
const lingerTimeout = time.Second

// linger closes the connection after an error frame without resetting
// it. Closing a socket with unread input sends RST, and a client still
// writing then fails with "broken pipe" or "connection reset" before it
// reads the error frame. So linger half-closes (FIN follows the error
// frame) and discards the client's input until the client closes or
// lingerTimeout passes, then closes. Only for a connection whose reader
// has exited.
func (sess *session) linger() {
	if cw, ok := sess.conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		sess.conn.SetReadDeadline(time.Now().Add(lingerTimeout))
		io.Copy(io.Discard, sess.conn)
	}
	sess.conn.Close()
}

// cutCode splits "code: message" when the prefix looks like one of the
// wire error codes (a single token without spaces).
func cutCode(s string) (code, msg string, ok bool) {
	c, m, found := strings.Cut(s, ": ")
	if !found || c == "" || strings.ContainsAny(c, " :") {
		return "", "", false
	}
	return c, m, true
}

// finalize moves the session to a terminal state exactly once: the
// monitor is closed (its final races/stats/health stay queryable), the
// per-session metrics are deleted, and the report is written.
func (sess *session) finalize(state int32, cause error) {
	if !sess.state.CompareAndSwap(stateStreaming, state) {
		return
	}
	if cause != nil {
		sess.errMsg.Store(cause.Error())
		if state == stateFailed {
			sess.srv.sm.sessionsFailed.Inc()
		}
	}
	sess.mon.Close()
	close(sess.doneCh)
	sess.srv.finalized(sess)
}

// info builds the HTTP summary. Like results, it must not touch a
// quarantined session's monitor.
func (sess *session) info() SessionInfo {
	inf := SessionInfo{
		ID:         sess.id,
		State:      sess.stateName(),
		Tool:       sess.tool,
		Events:     sess.events.Load(),
		Frames:     sess.frames.Load(),
		Bytes:      sess.bytes.Load(),
		Races:      sess.raceCount(statsBudget),
		QueueDepth: len(sess.queue),
		StartedAt:  sess.started.UTC().Format(time.RFC3339Nano),
	}
	if e, _ := sess.errMsg.Load().(string); e != "" {
		inf.Err = e
	}
	return inf
}
