package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fasttrack/internal/obs"
	"fasttrack/trace"
)

// Fixed transport settings. dialTimeout bounds each connection attempt
// and writeTimeout each frame write. queueFrames bounds the client-side
// frame queue; a full queue makes Write wait (end-to-end backpressure,
// no event ever silently lost), counted in Stats().Stalls.
const (
	dialTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	queueFrames  = 32
)

// ErrSessionClosed is returned by operations on a session after Close.
var ErrSessionClosed = errors.New("client: session is closed")

// ServerError is a server-diagnosed session failure (a FrameErrorMsg on
// the wire): the daemon refused or tore down the session for cause.
// Code is one of the ErrCode constants.
type ServerError struct {
	Code string
	Msg  string
	// RetryAfter is the server's redial hint on admission refusals
	// (zero when the server gave none). Dial folds it into its
	// backoff.
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error [%s]: %s", e.Code, e.Msg)
}

// Temporary reports whether redialing may succeed: the daemon was
// saturated or draining, conditions that clear, as opposed to a
// rejected configuration or protocol violation.
func (e *ServerError) Temporary() bool {
	return e.Code == ErrCodeSessionCap || e.Code == ErrCodeDraining
}

// DialFunc opens the transport connection; overridable for tests and
// fault injection.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

type config struct {
	readTimeout time.Duration
	batchEvents int
	retries     int
	backoff     time.Duration
	hello       Handshake
	dial        DialFunc
}

func defaultConfig() config {
	return config{
		readTimeout: 30 * time.Second,
		batchEvents: 1024,
		retries:     3,
		backoff:     50 * time.Millisecond,
		hello:       Handshake{Version: ProtocolVersion},
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
}

// retryDelay is the wait before retry number attempt (0-based): a
// jittered exponential backoff — initial·2^attempt scaled by a uniform
// factor in [0.5, 1.5), so a daemon restart does not get its redialing
// clients back in one synchronized stampede.
func (c *config) retryDelay(attempt int) time.Duration {
	if attempt > 16 {
		attempt = 16
	}
	d := c.backoff * (1 << attempt)
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// Option configures Dial.
type Option func(*config)

// WithReadTimeout bounds each wait for a server reply (Flush, Results,
// Close).
func WithReadTimeout(d time.Duration) Option { return func(c *config) { c.readTimeout = d } }

// WithBatchSize sets how many events are packed per wire frame. The
// server ingests each frame as one Monitor.IngestBatch call, so the
// batch size is also the server-side amortization unit: larger frames
// mean fewer lock acquisitions per event in the daemon's analysis (at
// the cost of flush latency, since a partial batch is only framed by
// Flush, Results, or Close).
func WithBatchSize(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.batchEvents = n
		}
	}
}

// WithRetry sets the bounded dial retry budget: up to retries extra
// attempts, waiting between them with exponential backoff starting at
// initial with ±50% jitter.
func WithRetry(retries int, initial time.Duration) Option {
	return func(c *config) {
		if retries >= 0 {
			c.retries = retries
		}
		if initial > 0 {
			c.backoff = initial
		}
	}
}

// WithTool selects the server-side detector ("" = FastTrack).
func WithTool(name string) Option { return func(c *config) { c.hello.Tool = name } }

// WithValidation selects the server-side stream-validation policy
// ("off", "strict", "repair", "drop").
func WithValidation(policy string) Option { return func(c *config) { c.hello.Policy = policy } }

// WithGranularity selects the server-side shadow granularity ("fine" or
// "coarse").
func WithGranularity(g string) Option { return func(c *config) { c.hello.Gran = g } }

// WithTracing asks the server to trace this session's frames through
// the pipeline stages, and records matching client-side spans (queue
// wait and wire write per event frame, readable via TraceSpans). When
// the server grants the request, every event frame is stamped with a
// trace ID — the key that joins the client-side span to the server's
// /debug/trace spans for the same frame. A server that predates
// tracing simply never grants it; the session still works and the
// client-side spans are still recorded, just without server spans to
// join against.
func WithTracing() Option { return func(c *config) { c.hello.Tracing = true } }

// WithProvenance asks the server to run the provenance flight recorder
// on this session's detector: Results then carries Detailed reports
// with the evidence for each race (vector clocks, the failed
// happens-before check, the recent release/acquire chain, and a
// rendered explanation). Costs roughly one clock copy per analyzed
// access on the server; see BENCH_provenance.json.
func WithProvenance() Option { return func(c *config) { c.hello.Provenance = true } }

// WithDetailedReports asks the server to keep per-variable access
// history for this session, so each race report in Results carries the
// prior access's event index (Report.PrevIndex). The racedetect CLI
// sets it for JSON runs, making a remote race list byte-identical to a
// local analysis of the same trace. Costs two ints per variable on the
// server plus one store per slow-path access.
func WithDetailedReports() Option { return func(c *config) { c.hello.Detailed = true } }

// WithDialFunc replaces the transport dialer (tests, fault injection).
func WithDialFunc(f DialFunc) Option { return func(c *config) { c.dial = f } }

// Stats is the client-side accounting of a session.
type Stats struct {
	EventsWritten int64 // events accepted by Write
	EventsSent    int64 // events handed to the wire (flushed batches)
	FramesSent    int64
	Stalls        int64 // Writes that had to wait for queue space
}

// Session is one open analysis session on a racedetectd server. A
// Session's methods are safe for concurrent use, but events from
// concurrent writers are interleaved event by event; the common
// shape is one producing goroutine per session.
//
// Errors are sticky and fail-closed: once the connection or the
// server-side session has failed, every subsequent operation returns
// the first error. A dropped connection ends the session on both ends:
// events not acknowledged by a Flush may not have been analyzed, and a
// caller that wants to go on dials a new session, whose detector starts
// from an empty state.
type Session struct {
	cfg     config
	addr    string
	conn    net.Conn
	id      string
	replies chan inFrame // control replies, fed by readerLoop

	// The pending events frame: the binary trace header, then each
	// written event appended in place by trace.AppendBinary, so a sealed
	// frame is handed to the sender as it is, with the bytes a
	// trace.Writer would write for the same events.
	bmu     sync.Mutex // guards frame, batched and written
	frame   []byte
	batched int   // events in frame
	written int64 // events accepted by Write

	sealMu sync.Mutex // held from sealing a frame until it is queued (flushBatch)
	sendq  chan outFrame
	reqMu  sync.Mutex // one outstanding control request at a time

	dead     chan struct{} // closed by fail
	failOnce sync.Once
	errv     atomic.Value // error
	closed   atomic.Bool
	seq      atomic.Int64
	final    atomic.Value // Results, set by Close

	eventsSent atomic.Int64
	framesSent atomic.Int64
	stalls     atomic.Int64

	// Tracing state (WithTracing). spans is nil when tracing was not
	// requested; traceOK is the server's grant, fixed at the handshake.
	spans     *obs.SpanRing
	traceOK   bool
	traceSeq  atomic.Uint64
	traceBase uint64
}

type outFrame struct {
	t       trace.FrameType
	payload []byte
	id      uint64 // trace ID; 0 = untraced (control frames, tracing off)
	start   int64  // span start (batch sealed), unix nanos; 0 = no span
}

type inFrame struct {
	t       trace.FrameType
	payload []byte
}

// Dial connects to a racedetectd server and opens a session, retrying
// transient failures — both connection errors and server admission
// refusals that carry a Retry-After hint — with jittered exponential
// backoff up to the configured budget.
func Dial(addr string, opts ...Option) (*Session, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	conn, ok, err := sweepDial(&cfg, addr)
	if err != nil {
		return nil, err
	}

	s := &Session{
		cfg:     cfg,
		addr:    addr,
		conn:    conn,
		id:      ok.SessionID,
		replies: make(chan inFrame, 4),
		sendq:   make(chan outFrame, queueFrames),
		dead:    make(chan struct{}),
		traceOK: ok.Tracing,
	}
	if cfg.hello.Tracing {
		// Random high bits keep one session's trace IDs from colliding
		// with another's on the server's shared /debug/trace view; the
		// low traceSeqBits count the session's traced frames and wrap
		// within the session's own ID space (see nextTraceID).
		s.spans = obs.NewSpanRing(clientTraceSpans)
		s.traceBase = randTraceBase()
	}
	go s.senderLoop()
	go s.readerLoop()
	return s, nil
}

// sweepDial opens and handshakes a connection within the retry budget,
// waiting out the backoff between attempts — stretched to the server's
// Retry-After hint when it refused admission. A permanent server refusal
// (rejected configuration, protocol violation) aborts immediately, and
// so does a handshake failure that is not a server refusal: the peer
// does not speak the protocol.
func sweepDial(cfg *config, addr string) (net.Conn, HelloOK, error) {
	for attempt := 0; ; attempt++ {
		var hint time.Duration
		conn, err := cfg.dial(addr, dialTimeout)
		if err == nil {
			var ok HelloOK
			ok, err = handshakeConn(conn, cfg)
			if err == nil {
				return conn, ok, nil
			}
			conn.Close()
			var se *ServerError
			if !errors.As(err, &se) || !se.Temporary() {
				return nil, HelloOK{}, err
			}
			hint = se.RetryAfter
		}
		if attempt >= cfg.retries {
			return nil, HelloOK{}, fmt.Errorf("client: dial %s: %w (after %d attempts)", addr, err, attempt+1)
		}
		time.Sleep(maxDuration(cfg.retryDelay(attempt), hint))
	}
}

// clientTraceSpans is the capacity of the client-side span ring.
const clientTraceSpans = 64

// traceSeqBits is the width of a trace ID's per-session sequence field:
// the low bits count traced frames, the remaining high bits are the
// session's random base. 2^40 frames outlasts any session (a frame is
// ≥1 event, so that is a trillion events), while 24 random bits per
// concurrent session keep shared-/debug/trace collisions negligible.
const (
	traceSeqBits = 40
	traceSeqMask = uint64(1)<<traceSeqBits - 1
)

// randTraceBase draws a session's trace-ID base: random high bits with
// the sequence field clear, so IDs start at the bottom of the space.
func randTraceBase() uint64 { return rand.Uint64() &^ traceSeqMask }

// nextTraceID returns a fresh nonzero trace ID for an event frame. The
// sequence is masked into the low traceSeqBits, so even a session that
// overflows the field wraps within its own base's ID space instead of
// walking into another session's (the old addition-based form leaked
// into the neighboring base after 2^20 frames).
func (s *Session) nextTraceID() uint64 {
	id := s.traceBase | (s.traceSeq.Add(1) & traceSeqMask)
	if id == 0 {
		id = 1
	}
	return id
}

// TraceSpans returns the client-side spans of recently sent event
// frames, newest first: the "enqueue" stage is the frame's wait in the
// client queue (backpressure shows up here) and "write" is the wire
// write. Nil unless the session was opened WithTracing. Each span's
// trace ID matches the server-side span for the same frame when the
// server granted tracing.
func (s *Session) TraceSpans() []obs.Span {
	if s.spans == nil {
		return nil
	}
	return s.spans.Snapshot()
}

// TracingGranted reports whether the server granted the tracing
// request.
func (s *Session) TracingGranted() bool { return s.traceOK }

func maxDuration(a, b time.Duration) time.Duration {
	if a >= b {
		return a
	}
	return b
}

// handshakeConn runs the hello exchange synchronously on a fresh
// connection, before the sender/reader loops start.
func handshakeConn(conn net.Conn, cfg *config) (HelloOK, error) {
	fw := trace.NewFrameWriter(conn)
	b, err := json.Marshal(cfg.hello)
	if err != nil {
		return HelloOK{}, err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := fw.WriteFrame(FrameHello, b); err != nil {
		return HelloOK{}, fmt.Errorf("client: sending hello: %w", err)
	}
	fr := trace.NewFrameReader(conn, trace.DefaultMaxFramePayload)
	if cfg.readTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(cfg.readTimeout))
	}
	t, payload, err := fr.ReadFrame()
	if err != nil {
		return HelloOK{}, fmt.Errorf("client: reading hello reply: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	switch t {
	case FrameHelloOK:
		var ok HelloOK
		if err := json.Unmarshal(payload, &ok); err != nil {
			return HelloOK{}, fmt.Errorf("client: malformed hello reply: %w", err)
		}
		return ok, nil
	case FrameErrorMsg:
		return HelloOK{}, wireErr(payload)
	default:
		return HelloOK{}, fmt.Errorf("client: unexpected hello reply frame %d", t)
	}
}

// ID returns the server-assigned session identifier.
func (s *Session) ID() string { return s.id }

// Addr returns the address of the daemon serving the session.
func (s *Session) Addr() string { return s.addr }

// Err returns the session's sticky error, nil while healthy.
func (s *Session) Err() error {
	if e, _ := s.errv.Load().(error); e != nil {
		return e
	}
	return nil
}

// fail records the first error, wakes every blocked operation, and
// severs the connection, which stops both loops. Later calls keep the
// first error.
func (s *Session) fail(err error) {
	s.failOnce.Do(func() {
		s.errv.Store(err)
		close(s.dead)
	})
	s.conn.Close()
}

// senderLoop is the only writer of the connection after the handshake.
func (s *Session) senderLoop() {
	fw := trace.NewFrameWriter(s.conn)
	for {
		var f outFrame
		select {
		case f = <-s.sendq:
		case <-s.dead:
			return
		}
		s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		var wstart int64
		if f.start != 0 {
			wstart = time.Now().UnixNano()
		}
		if err := fw.WriteTracedFrame(f.t, f.id, f.payload); err != nil {
			s.fail(fmt.Errorf("client: writing frame: %w", err))
			return
		}
		s.framesSent.Add(1)
		if f.start != 0 && s.spans != nil {
			sp := obs.Span{TraceID: f.id, Label: s.id, Seq: s.framesSent.Load(), Start: f.start}
			sp.AddStage("enqueue", wstart-f.start)
			sp.AddStage("write", time.Now().UnixNano()-wstart)
			s.spans.Record(sp)
		}
	}
}

// readerLoop is the only reader of the connection; it feeds replies to
// the waiting control operation.
func (s *Session) readerLoop() {
	fr := trace.NewFrameReader(s.conn, trace.DefaultMaxFramePayload)
	for {
		t, payload, err := fr.ReadFrame()
		if err != nil {
			s.fail(fmt.Errorf("client: reading reply: %w", err))
			return
		}
		if t == FrameErrorMsg {
			// The server's diagnosis wins the sticky error: fail records
			// it before closing, so the sender's next write, which then
			// fails on the closed connection, cannot replace it.
			s.fail(wireErr(payload))
			return
		}
		select {
		case s.replies <- inFrame{t, payload}:
		case <-s.dead:
			return
		}
	}
}

// wireErr decodes a server error frame.
func wireErr(payload []byte) error {
	var we WireError
	if err := json.Unmarshal(payload, &we); err != nil {
		return fmt.Errorf("client: malformed server error frame: %w", err)
	}
	return &ServerError{
		Code:       we.Code,
		Msg:        we.Msg,
		RetryAfter: time.Duration(we.RetryAfterMillis) * time.Millisecond,
	}
}

// Write appends one event to the current batch, sending the batch as a
// wire frame when it reaches the configured size. An event the codec
// cannot carry is rejected with trace.AppendBinary's error, positioned
// by the event's index within the frame, and leaves the batch as it
// was. A full frame queue makes Write wait (backpressure).
func (s *Session) Write(e trace.Event) error {
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	s.bmu.Lock()
	if s.batched == 0 {
		s.frame = trace.AppendBinaryHeader(s.frame[:0])
	}
	frame, err := trace.AppendBinary(s.frame, s.batched, e)
	if err != nil {
		s.bmu.Unlock()
		return err
	}
	s.frame = frame
	s.batched++
	s.written++
	full := s.batched >= s.cfg.batchEvents
	s.bmu.Unlock()
	if full {
		return s.flushBatch()
	}
	return nil
}

// flushBatch seals the current batch into an events frame and enqueues
// it, waiting for queue space if necessary. It holds sealMu from the
// seal until the frame is queued, so frames are queued in the order they
// were sealed; otherwise a frame sealed later could overtake an earlier
// one on a full queue and deliver a writer's events out of order
// (TestSessionConcurrentWriters). Only other sealers wait on sealMu, and
// they would wait for queue space anyway; Write and Stats take bmu
// alone, which is never held across the wait.
func (s *Session) flushBatch() error {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.bmu.Lock()
	if s.batched == 0 {
		s.bmu.Unlock()
		return nil
	}
	f := outFrame{t: FrameEvents, payload: s.frame}
	n := int64(s.batched)
	// The sender owns the sealed frame from here on, so the next one
	// gets a buffer of its own, with room to come out a little larger
	// than this one without regrowing.
	s.frame = make([]byte, 0, len(f.payload)+len(f.payload)/4)
	s.batched = 0
	s.bmu.Unlock()

	if s.spans != nil {
		f.start = time.Now().UnixNano()
		if s.traceOK {
			f.id = s.nextTraceID()
		}
	}
	select {
	case s.sendq <- f:
	default:
		s.stalls.Add(1)
		select {
		case s.sendq <- f:
		case <-s.dead:
			return s.Err()
		}
	}
	s.eventsSent.Add(n)
	return nil
}

// enqueueControl enqueues a control frame, waiting for queue space.
func (s *Session) enqueueControl(t trace.FrameType, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	select {
	case s.sendq <- outFrame{t: t, payload: b}:
		return nil
	case <-s.dead:
		return s.Err()
	}
}

// await waits for the reply of the outstanding control request.
// Callers hold reqMu, so at most one reply is in flight.
func (s *Session) await(want trace.FrameType, seq int64) (inFrame, error) {
	var timeout <-chan time.Time
	if s.cfg.readTimeout > 0 {
		tm := time.NewTimer(s.cfg.readTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	var r inFrame
	select {
	case r = <-s.replies:
	case <-s.dead:
		// An already-delivered reply wins over a concurrent connection
		// teardown: the server may legally close right after replying (a
		// CloseOK followed by its end of stream). The reader queues a
		// reply before it reports its connection's end, so when the
		// teardown wins the select, one more look finds a reply that
		// raced it.
		select {
		case r = <-s.replies:
		default:
			return inFrame{}, s.Err()
		}
	case <-timeout:
		err := fmt.Errorf("client: timed out after %v waiting for frame %d", s.cfg.readTimeout, want)
		s.fail(err)
		return inFrame{}, err
	}
	if r.t != want {
		err := fmt.Errorf("client: protocol error: got frame %d, want %d", r.t, want)
		s.fail(err)
		return inFrame{}, err
	}
	var q Seq
	if err := json.Unmarshal(r.payload, &q); err != nil {
		s.fail(fmt.Errorf("client: malformed reply: %w", err))
		return inFrame{}, s.Err()
	}
	if q.Seq != seq {
		err := fmt.Errorf("client: protocol error: reply seq %d, want %d", q.Seq, seq)
		s.fail(err)
		return inFrame{}, err
	}
	return r, nil
}

// Flush sends the current batch and blocks until the server
// acknowledges that every event sent so far has been ingested. Events
// acknowledged by a Flush survive even an immediate server drain.
func (s *Session) Flush() error {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	if err := s.flushBatch(); err != nil {
		return err
	}
	seq := s.seq.Add(1)
	if err := s.enqueueControl(FrameFlush, Seq{Seq: seq}); err != nil {
		return err
	}
	_, err := s.await(FrameFlushOK, seq)
	return err
}

// Results sends any buffered events and returns the server's current
// analysis snapshot for this session. After Close it returns the final
// snapshot captured at session end.
func (s *Session) Results() (Results, error) {
	if f, ok := s.final.Load().(Results); ok {
		return f, nil
	}
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.closed.Load() {
		return Results{}, ErrSessionClosed
	}
	if err := s.Err(); err != nil {
		return Results{}, err
	}
	if err := s.flushBatch(); err != nil {
		return Results{}, err
	}
	seq := s.seq.Add(1)
	if err := s.enqueueControl(FrameQuery, Seq{Seq: seq}); err != nil {
		return Results{}, err
	}
	r, err := s.await(FrameResults, seq)
	if err != nil {
		return Results{}, err
	}
	var res Results
	if err := json.Unmarshal(r.payload, &res); err != nil {
		return Results{}, fmt.Errorf("client: malformed results: %w", err)
	}
	return res, nil
}

// Close flushes buffered events, ends the session on the server
// (capturing its final results, available via Results afterwards), and
// releases the connection. Closing an already-failed session returns
// the sticky error; Close is idempotent.
func (s *Session) Close() error {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	if err := s.Err(); err != nil {
		s.closed.Store(true)
		return err
	}
	if err := s.flushBatch(); err != nil {
		s.closed.Store(true)
		return err
	}
	seq := s.seq.Add(1)
	if err := s.enqueueControl(FrameClose, Seq{Seq: seq}); err != nil {
		s.closed.Store(true)
		return err
	}
	r, err := s.await(FrameCloseOK, seq)
	s.closed.Store(true)
	if err != nil {
		return err // await failed the session, which closed the connection
	}
	var res Results
	if err := json.Unmarshal(r.payload, &res); err == nil {
		s.final.Store(res)
	}
	s.fail(ErrSessionClosed) // tear down the loops and the connection
	return nil
}

// Stats returns the client-side accounting so far.
func (s *Session) Stats() Stats {
	// An event is counted written before its frame is sealed and sent
	// after, so reading sent first keeps the snapshot from showing more
	// events sent than written.
	sent := s.eventsSent.Load()
	s.bmu.Lock()
	written := s.written
	s.bmu.Unlock()
	return Stats{
		EventsWritten: written,
		EventsSent:    sent,
		FramesSent:    s.framesSent.Load(),
		Stalls:        s.stalls.Load(),
	}
}
