package client

import (
	"bytes"
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

// OverflowPolicy selects what Write does when the client's bounded
// frame queue is full.
type OverflowPolicy int

const (
	// Block makes Write wait for queue space: end-to-end backpressure,
	// no event ever silently lost.
	Block OverflowPolicy = iota
	// Shed makes Write drop the newest batch — the one just sealed —
	// when the queue is full, instead of waiting: bounded producer
	// latency at the cost of analysis completeness. Batches already
	// queued survive; it is the most recent part of the trace that is
	// lost. Shed frames are counted in Stats().FramesShed.
	Shed
)

// ErrSessionClosed is returned by operations on a session after Close.
var ErrSessionClosed = errors.New("client: session is closed")

// ErrResumed is returned by a control operation (Flush, Results, Close)
// whose reply was lost to a connection drop that the session then
// recovered from (WithReconnect). It is transient, not sticky: the
// session is healthy again on a fresh connection and the operation can
// simply be retried.
var ErrResumed = errors.New("client: connection was lost and resumed; retry the operation")

// ServerError is a server-diagnosed session failure (a FrameErrorMsg on
// the wire): the daemon refused or tore down the session for cause.
// Code is one of the ErrCode constants.
type ServerError struct {
	Code string
	Msg  string
	// RetryAfter is the server's redial hint on admission refusals
	// (zero when the server gave none). Dial and the resume path fold
	// it into their backoff.
	RetryAfter time.Duration
	// Node is the refusing daemon's fleet identity ("" on unnamed
	// daemons); fleet routing attributes refusals to nodes with it.
	Node string
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
	dialTimeout  time.Duration
	writeTimeout time.Duration
	readTimeout  time.Duration
	batchEvents  int
	queueFrames  int
	onFull       OverflowPolicy
	retries      int
	backoff      time.Duration
	schedule     func(attempt int) time.Duration
	reconnects   int
	maxFrame     int
	hello        Handshake
	dial         DialFunc
	optErr       error

	// Fleet routing hooks (see fleet.go / withRoute). route returns the
	// candidate dial addresses ranked best-first for this session's key;
	// nil means single-node (the Dial addr is the only candidate).
	// observe feeds each candidate's dial+handshake outcome back to the
	// fleet health tracker. sessionKey is the routing key DialFleet
	// hashes (set via WithSessionKey).
	route      func() []string
	observe    func(addr string, err error)
	sessionKey string
}

// candidates returns the dial addresses to sweep, best-first: the fleet
// route when configured, else just the session's address.
func (c *config) candidates(addr string) []string {
	if c.route != nil {
		if r := c.route(); len(r) > 0 {
			return r
		}
	}
	return []string{addr}
}

// observeDial reports one candidate's outcome to the fleet tracker
// (nil error = successful handshake); a no-op without routing.
func (c *config) observeDial(addr string, err error) {
	if c.observe != nil {
		c.observe(addr, err)
	}
}

func defaultConfig() config {
	return config{
		dialTimeout:  5 * time.Second,
		writeTimeout: 10 * time.Second,
		readTimeout:  30 * time.Second,
		batchEvents:  1024,
		queueFrames:  32,
		onFull:       Block,
		retries:      3,
		backoff:      50 * time.Millisecond,
		maxFrame:     trace.DefaultMaxFramePayload,
		hello:        Handshake{Version: ProtocolVersion},
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
}

// retryDelay is the wait before retry number attempt (0-based): the
// configured schedule, or the default jittered exponential backoff —
// initial·2^attempt scaled by a uniform factor in [0.5, 1.5), so a
// daemon restart does not get its reconnecting clients back in one
// synchronized stampede.
func (c *config) retryDelay(attempt int) time.Duration {
	if c.schedule != nil {
		return c.schedule(attempt)
	}
	if attempt > 16 {
		attempt = 16
	}
	d := c.backoff * (1 << attempt)
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// Option configures Dial.
type Option func(*config)

// WithDialTimeout bounds each connection attempt.
func WithDialTimeout(d time.Duration) Option { return func(c *config) { c.dialTimeout = d } }

// WithWriteTimeout bounds each frame write (0 = no deadline).
func WithWriteTimeout(d time.Duration) Option { return func(c *config) { c.writeTimeout = d } }

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

// WithQueue bounds the client-side frame queue and selects the
// overflow policy.
func WithQueue(frames int, p OverflowPolicy) Option {
	return func(c *config) {
		if frames > 0 {
			c.queueFrames = frames
		}
		c.onFull = p
	}
}

// WithRetry sets the bounded dial retry budget: up to retries extra
// attempts, waiting retryDelay(attempt) between them — by default
// exponential backoff starting at initial with ±50% jitter (see
// WithRetrySchedule to replace the schedule entirely).
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

// WithRetrySchedule replaces the dial/reconnect backoff schedule: f is
// called with the 0-based retry attempt number and returns how long to
// wait before that retry. The number of attempts is still bounded by
// WithRetry's budget. The caller owns jitter when supplying a schedule;
// a deterministic schedule re-creates the synchronized-stampede problem
// the default avoids. A server Retry-After hint still takes precedence
// when it is longer than the scheduled delay.
func WithRetrySchedule(f func(attempt int) time.Duration) Option {
	return func(c *config) { c.schedule = f }
}

// WithReconnect enables transparent reconnect-and-resume: when the
// transport fails mid-session (not on a server-diagnosed error), the
// session redials with the retry schedule, re-handshakes with an
// incremented session epoch and the original session id as lineage, and
// continues streaming — up to maxResumes times over the session's life.
// See Session for the exact semantics and what resume does NOT promise.
func WithReconnect(maxResumes int) Option {
	return func(c *config) {
		if maxResumes > 0 {
			c.reconnects = maxResumes
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

// WithFidelity selects the session's fidelity mode: "full" (default),
// "sampled", "sampled(p)" with p in (0,1], or "adaptive" (the daemon's
// governor adjusts the session with load). A malformed spec fails Dial.
// Anything below full fidelity trades detection probability for
// throughput; the granted rate and the achieved detection probability
// are reported in Results.
func WithFidelity(spec string) Option {
	return func(c *config) {
		mode, rate, err := ParseFidelity(spec)
		if err != nil {
			c.optErr = err
			return
		}
		c.hello.Fidelity = mode
		c.hello.SampleRate = rate
	}
}

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
	EventsShed    int64 // events in frames dropped by the Shed policy
	FramesSent    int64
	FramesShed    int64
	Stalls        int64 // Writes that had to wait for queue space
	Resumes       int64 // successful reconnects (WithReconnect)
}

// Session is one open analysis session on a racedetectd server. A
// Session's methods are safe for concurrent use, but events from
// concurrent writers are interleaved at batch granularity; the common
// shape is one producing goroutine per session.
//
// Errors are sticky and fail-closed by default: once the connection or
// the server-side session has failed, every subsequent operation
// returns the first error. WithReconnect relaxes this for transport
// failures only: the session redials, re-handshakes with an incremented
// epoch and its original id as lineage (so the server can refuse a
// stale duplicate of an earlier connection — no event is ever counted
// into two live sessions of one lineage), and resumes streaming into a
// fresh server-side detector. Resume preserves liveness, not exactness:
// the old connection's analysis state died with it, so events
// unacknowledged at the drop may be lost and race reports start over
// from the resumed stream's beginning. Control operations that were
// awaiting a reply across the drop return the transient ErrResumed.
// Server-diagnosed failures (FrameErrorMsg) never trigger resume; the
// daemon tore the session down for cause and the error stays sticky.
type Session struct {
	cfg  config
	addr string

	// Connection state, replaced as a unit on resume. gen counts
	// connection generations; genDead is closed when generation gen's
	// connection is declared lost; replies carries generation gen's
	// control replies. Control frames are stamped with the generation
	// that enqueued them and are dropped rather than sent on a later
	// one (their awaiter got ErrResumed); event frames are
	// generation-free and survive resume.
	connMu      sync.Mutex
	conn        net.Conn // nil once the session has failed
	gen         int64
	genDead     chan struct{}
	replies     chan inFrame
	id          string
	node        string // serving daemon's fleet identity (HelloOK.Node)
	rootID      string // first session id of the lineage
	epoch       int64  // last handshake epoch sent
	resumesLeft int

	bmu     sync.Mutex // guards the batch encoder
	buf     bytes.Buffer
	enc     *trace.Writer
	batched int64

	sendq chan outFrame
	reqMu sync.Mutex // one outstanding control request at a time

	dead     chan struct{} // closed by fail
	failOnce sync.Once
	errv     atomic.Value // error
	closed   atomic.Bool
	seq      atomic.Int64
	final    atomic.Value // Results, set by Close

	eventsWritten atomic.Int64
	eventsSent    atomic.Int64
	eventsShed    atomic.Int64
	framesSent    atomic.Int64
	framesShed    atomic.Int64
	stalls        atomic.Int64
	resumes       atomic.Int64

	// Tracing state (WithTracing). spans is nil when tracing was not
	// requested; traceOK tracks the current connection's server grant
	// (re-evaluated on every handshake, so a resume onto a server that
	// does not speak the extension stops stamping frames).
	spans     *obs.SpanRing
	traceOK   atomic.Bool
	traceSeq  atomic.Uint64
	traceBase uint64
}

// eventsGen marks an outFrame that may be sent on any connection
// generation (event payloads survive resume; control frames do not).
const eventsGen = int64(-1)

type outFrame struct {
	t       trace.FrameType
	payload []byte
	gen     int64
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
	if cfg.optErr != nil {
		return nil, cfg.optErr
	}

	// Each attempt sweeps the candidate list best-first (a single
	// element without fleet routing): failover to the next node is free,
	// only an exhausted sweep costs a backoff wait. A permanent server
	// refusal (bad configuration, protocol violation) fails immediately
	// — every node would refuse it the same way.
	conn, ok, dialed, err := sweepDial(&cfg, addr, cfg.hello, nil)
	if err != nil {
		return nil, err
	}
	addr = dialed

	s := &Session{
		cfg:         cfg,
		addr:        addr,
		conn:        conn,
		genDead:     make(chan struct{}),
		replies:     make(chan inFrame, 4),
		id:          ok.SessionID,
		node:        ok.Node,
		rootID:      ok.SessionID,
		resumesLeft: cfg.reconnects,
		sendq:       make(chan outFrame, cfg.queueFrames),
		dead:        make(chan struct{}),
	}
	if cfg.hello.Tracing {
		// Random high bits keep one session's trace IDs from colliding
		// with another's on the server's shared /debug/trace view; the
		// low traceSeqBits count the session's traced frames and wrap
		// within the session's own ID space (see nextTraceID).
		s.spans = obs.NewSpanRing(clientTraceSpans)
		s.traceBase = randTraceBase()
	}
	s.traceOK.Store(ok.Tracing)
	s.enc = trace.NewWriter(&s.buf, trace.Binary)
	go s.senderLoop()
	go s.readerLoop(conn, 0, s.replies)
	return s, nil
}

// sweepDial opens and handshakes a connection within the retry budget:
// each attempt sweeps the candidate list best-first (one element
// without fleet routing), reporting every candidate's outcome to the
// fleet tracker, and only an exhausted sweep waits out the backoff —
// stretched to the longest Retry-After hint collected during the sweep.
// A permanent server refusal (rejected configuration, protocol
// violation) aborts immediately: every node would refuse it the same
// way. A non-server handshake failure is fatal on a first single-node
// dial (the peer does not speak the protocol) but retryable when
// sweeping a fleet or resuming (one sick node must not kill the
// session). prep, when non-nil, mutates the hello before each handshake
// — the resume path advances the epoch per attempt there, so a reply
// lost after the server registered its epoch cannot stale the next try.
// Returns the connection, the server's hello reply, and the address
// that accepted.
func sweepDial(cfg *config, addr string, hello Handshake, prep func(*Handshake)) (net.Conn, HelloOK, string, error) {
	hsRetry := cfg.route != nil || prep != nil
	for attempt := 0; ; attempt++ {
		var hint time.Duration
		var lastErr error
		for _, cand := range cfg.candidates(addr) {
			conn, err := cfg.dial(cand, cfg.dialTimeout)
			if err != nil {
				cfg.observeDial(cand, err)
				lastErr = err
				continue
			}
			if prep != nil {
				prep(&hello)
			}
			var ok HelloOK
			ok, err = handshakeConn(conn, cfg, hello)
			if err == nil {
				cfg.observeDial(cand, nil)
				return conn, ok, cand, nil
			}
			conn.Close()
			cfg.observeDial(cand, err)
			var se *ServerError
			if errors.As(err, &se) {
				if !se.Temporary() {
					return nil, HelloOK{}, "", err
				}
				hint = maxDuration(hint, se.RetryAfter)
				lastErr = err
				continue
			}
			if !hsRetry {
				return nil, HelloOK{}, "", err
			}
			lastErr = err
		}
		if attempt >= cfg.retries {
			return nil, HelloOK{}, "", fmt.Errorf("client: dial %s: %w (after %d attempts)", addr, lastErr, attempt+1)
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
// request on the current connection.
func (s *Session) TracingGranted() bool { return s.traceOK.Load() }

func maxDuration(a, b time.Duration) time.Duration {
	if a >= b {
		return a
	}
	return b
}

// handshakeConn runs the hello exchange synchronously on a fresh
// connection, before (or between) the sender/reader loops.
func handshakeConn(conn net.Conn, cfg *config, hello Handshake) (HelloOK, error) {
	fw := trace.NewFrameWriter(conn)
	b, err := json.Marshal(hello)
	if err != nil {
		return HelloOK{}, err
	}
	if cfg.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(cfg.writeTimeout))
	}
	if err := fw.WriteFrame(FrameHello, b); err != nil {
		return HelloOK{}, fmt.Errorf("client: sending hello: %w", err)
	}
	fr := trace.NewFrameReader(conn, cfg.maxFrame)
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

// ID returns the server-assigned session identifier (of the current
// connection generation; resume opens a new server session whose
// lineage is RootID).
func (s *Session) ID() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.id
}

// RootID returns the first session id of this session's lineage; it is
// stable across resumes and is what resumed handshakes name in
// ResumeOf.
func (s *Session) RootID() string { return s.rootID }

// Node returns the fleet identity of the daemon currently serving the
// session (HelloOK.Node; "" from unnamed daemons). It can change across
// resumes — a fleet-routed session that fails over reports its new
// home.
func (s *Session) Node() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.node
}

// Addr returns the address of the daemon currently serving the session;
// like Node it can change when a fleet-routed session fails over.
func (s *Session) Addr() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.addr
}

// Err returns the session's sticky error, nil while healthy.
func (s *Session) Err() error {
	if e, _ := s.errv.Load().(error); e != nil {
		return e
	}
	return nil
}

// fail records the first error and wakes every blocked operation.
// It does not touch the connection (callers own that; see closeConn).
func (s *Session) fail(err error) {
	s.failOnce.Do(func() {
		s.errv.Store(err)
		close(s.dead)
	})
}

// closeConn severs the current connection, unblocking the loops.
func (s *Session) closeConn() {
	s.connMu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.connMu.Unlock()
}

// snapshot returns the current connection generation as one consistent
// unit.
func (s *Session) snapshot() (net.Conn, int64, chan inFrame, chan struct{}) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.conn, s.gen, s.replies, s.genDead
}

// generation returns the current connection generation number.
func (s *Session) generation() int64 {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.gen
}

// lost is the single place a transport failure on generation gen is
// handled: the first reporter (sender or reader loop) either resumes
// the session on a fresh connection or makes the failure sticky.
// Duplicate and stale reports are no-ops.
func (s *Session) lost(gen int64, cause error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.gen != gen || s.conn == nil {
		return
	}
	s.conn.Close()
	close(s.genDead) // awaiting control ops observe ErrResumed
	if s.Err() != nil || s.closed.Load() || s.resumesLeft <= 0 {
		s.fail(cause)
		s.conn = nil
		return
	}
	s.resumesLeft--
	s.redialLocked(cause)
}

// redialLocked re-establishes the session under connMu: jittered-backoff
// redial (sweeping the fleet's candidate list when routed, so the
// session fails over to another node if its own died), then a resume
// handshake carrying the lineage's root id and a strictly increasing
// epoch — incremented per handshake attempt, so even if an attempt's
// reply is lost after the server registered it, the next attempt still
// presents a newer epoch. A node that never saw the lineage admits any
// epoch (its high-water mark is zero), which is what makes cross-node
// failover just another resume. While it runs, senderLoop blocks in
// snapshot and producers back up in the frame queue: reconnect is
// backpressure, not loss.
func (s *Session) redialLocked(cause error) {
	hello := s.cfg.hello
	hello.ResumeOf = s.rootID
	conn, ok, dialed, err := sweepDial(&s.cfg, s.addr, hello, func(h *Handshake) {
		s.epoch++
		h.Epoch = s.epoch
	})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) && !se.Temporary() {
			s.fail(fmt.Errorf("client: resume refused: %w (connection lost: %v)", err, cause))
		} else {
			s.fail(fmt.Errorf("client: resume failed: %w (connection lost: %v)", err, cause))
		}
		s.conn = nil
		return
	}
	s.addr = dialed
	s.conn = conn
	s.gen++
	s.genDead = make(chan struct{})
	s.replies = make(chan inFrame, 4)
	s.id = ok.SessionID
	s.node = ok.Node
	s.traceOK.Store(ok.Tracing)
	s.resumes.Add(1)
	go s.readerLoop(conn, s.gen, s.replies)
}

// senderLoop is the only writer of the connection(s) after the
// handshake. A frame whose write fails is retried verbatim on the
// replacement connection — safe because the resumed server session's
// detector is fresh, so the events count exactly once there.
func (s *Session) senderLoop() {
	var (
		fw    *trace.FrameWriter
		fwGen = int64(-1)
	)
	for {
		var f outFrame
		select {
		case f = <-s.sendq:
		case <-s.dead:
			return
		}
		for {
			conn, gen, _, _ := s.snapshot()
			if conn == nil {
				return // session failed
			}
			if f.gen != eventsGen && f.gen != gen {
				// Control frame from a pre-resume generation: its
				// awaiter already got ErrResumed; sending it to the
				// fresh session would draw a reply nobody consumes.
				break
			}
			if fwGen != gen {
				fw = trace.NewFrameWriter(conn)
				fwGen = gen
			}
			if s.cfg.writeTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
			}
			// A frame stamped under an earlier connection's grant is
			// sent plain if the resumed server did not re-grant tracing
			// (it would reject the flagged type byte).
			id := f.id
			if id != 0 && !s.traceOK.Load() {
				id = 0
			}
			var wstart int64
			if f.start != 0 {
				wstart = time.Now().UnixNano()
			}
			if err := fw.WriteTracedFrame(f.t, id, f.payload); err == nil {
				s.framesSent.Add(1)
				if f.start != 0 && s.spans != nil {
					sp := obs.Span{TraceID: f.id, Label: s.rootID, Seq: s.framesSent.Load(), Start: f.start}
					sp.AddStage("enqueue", wstart-f.start)
					sp.AddStage("write", time.Now().UnixNano()-wstart)
					s.spans.Record(sp)
				}
				break
			} else {
				s.lost(gen, fmt.Errorf("client: writing frame: %w", err))
			}
		}
	}
}

// readerLoop is the only reader of one connection generation; it feeds
// replies to the waiting control operation. Transport errors go through
// lost (which may resume); server error frames are sticky — the daemon
// tore the session down for cause, so resuming would replay the same
// fate.
func (s *Session) readerLoop(conn net.Conn, gen int64, replies chan inFrame) {
	fr := trace.NewFrameReader(conn, s.cfg.maxFrame)
	for {
		t, payload, err := fr.ReadFrame()
		if err != nil {
			s.lost(gen, fmt.Errorf("client: reading reply: %w", err))
			return
		}
		if t == FrameErrorMsg {
			conn.Close()
			s.fail(wireErr(payload))
			return
		}
		select {
		case replies <- inFrame{t, payload}:
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
		Node:       we.Node,
	}
}

// Write appends one event to the current batch, sending the batch as a
// wire frame when it reaches the configured size. Under the Block
// policy a full queue makes Write wait (backpressure); under Shed the
// batch is dropped and counted.
func (s *Session) Write(e trace.Event) error {
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	s.bmu.Lock()
	if err := s.enc.Write(e); err != nil {
		s.bmu.Unlock()
		return err
	}
	s.eventsWritten.Add(1)
	s.batched++
	full := s.batched >= int64(s.cfg.batchEvents)
	s.bmu.Unlock()
	if full {
		return s.flushBatch()
	}
	return nil
}

// flushBatch seals the current batch into an events frame and enqueues
// it per the overflow policy.
func (s *Session) flushBatch() error {
	s.bmu.Lock()
	if s.batched == 0 {
		s.bmu.Unlock()
		return nil
	}
	if err := s.enc.Flush(); err != nil {
		s.bmu.Unlock()
		return err
	}
	payload := append([]byte(nil), s.buf.Bytes()...)
	n := s.batched
	s.buf.Reset()
	s.enc = trace.NewWriter(&s.buf, trace.Binary)
	s.batched = 0
	s.bmu.Unlock()

	f := outFrame{t: FrameEvents, payload: payload, gen: eventsGen}
	if s.spans != nil {
		f.start = time.Now().UnixNano()
		if s.traceOK.Load() {
			f.id = s.nextTraceID()
		}
	}
	if s.cfg.onFull == Shed {
		select {
		case s.sendq <- f:
			s.eventsSent.Add(n)
		default:
			s.framesShed.Add(1)
			s.eventsShed.Add(n)
		}
		return nil
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

// enqueueControl enqueues a control frame stamped with the generation
// it belongs to; control frames always block for space (they are rare
// and must not be shed).
func (s *Session) enqueueControl(t trace.FrameType, v any, gen int64) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	select {
	case s.sendq <- outFrame{t: t, payload: b, gen: gen}:
		return nil
	case <-s.dead:
		return s.Err()
	}
}

// await waits for the reply of the outstanding control request, issued
// at connection generation gen0. Callers hold reqMu, so at most one
// reply is in flight. If the connection was lost (and possibly resumed)
// since the request was issued, the reply will never arrive; await
// returns ErrResumed instead of waiting for the timeout.
func (s *Session) await(want trace.FrameType, seq, gen0 int64) (inFrame, error) {
	conn, gen, replies, gd := s.snapshot()
	if gen != gen0 || conn == nil {
		if err := s.Err(); err != nil {
			return inFrame{}, err
		}
		return inFrame{}, ErrResumed
	}
	var timeout <-chan time.Time
	if s.cfg.readTimeout > 0 {
		tm := time.NewTimer(s.cfg.readTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	// An already-delivered reply wins over a concurrent connection
	// teardown: the server may legally close right after replying (a
	// CloseOK followed by its end of stream).
	var r inFrame
	select {
	case r = <-replies:
	default:
		select {
		case r = <-replies:
		case <-gd:
			if err := s.Err(); err != nil {
				return inFrame{}, err
			}
			return inFrame{}, ErrResumed
		case <-s.dead:
			return inFrame{}, s.Err()
		case <-timeout:
			err := fmt.Errorf("client: timed out after %v waiting for frame %d", s.cfg.readTimeout, want)
			s.fail(err)
			s.closeConn()
			return inFrame{}, err
		}
	}
	if r.t != want {
		err := fmt.Errorf("client: protocol error: got frame %d, want %d", r.t, want)
		s.fail(err)
		s.closeConn()
		return inFrame{}, err
	}
	var q Seq
	if err := json.Unmarshal(r.payload, &q); err != nil {
		s.fail(fmt.Errorf("client: malformed reply: %w", err))
		s.closeConn()
		return inFrame{}, s.Err()
	}
	if q.Seq != seq {
		err := fmt.Errorf("client: protocol error: reply seq %d, want %d", q.Seq, seq)
		s.fail(err)
		s.closeConn()
		return inFrame{}, err
	}
	return r, nil
}

// Flush sends the current batch and blocks until the server
// acknowledges that every event sent so far has been ingested. Events
// acknowledged by a Flush survive even an immediate server drain. After
// a resume, the acknowledgment covers the resumed session's stream —
// events unacknowledged at the connection drop may have been lost with
// the old session.
func (s *Session) Flush() error {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if err := s.flushBatch(); err != nil {
		return err
	}
	gen0 := s.generation()
	seq := s.seq.Add(1)
	if err := s.enqueueControl(FrameFlush, Seq{Seq: seq}, gen0); err != nil {
		return err
	}
	_, err := s.await(FrameFlushOK, seq, gen0)
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
	if err := s.flushBatch(); err != nil {
		return Results{}, err
	}
	gen0 := s.generation()
	seq := s.seq.Add(1)
	if err := s.enqueueControl(FrameQuery, Seq{Seq: seq}, gen0); err != nil {
		return Results{}, err
	}
	r, err := s.await(FrameResults, seq, gen0)
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
	gen0 := s.generation()
	seq := s.seq.Add(1)
	if err := s.enqueueControl(FrameClose, Seq{Seq: seq}, gen0); err != nil {
		s.closed.Store(true)
		return err
	}
	r, err := s.await(FrameCloseOK, seq, gen0)
	s.closed.Store(true)
	if err != nil {
		// Tear the session down even when the goodbye was cut short
		// (e.g. ErrResumed), so a resumed connection is not left open.
		s.fail(err)
		s.closeConn()
		return err
	}
	var res Results
	if err := json.Unmarshal(r.payload, &res); err == nil {
		s.final.Store(res)
	}
	s.fail(ErrSessionClosed) // tear down the loops...
	s.closeConn()            // ...and the connection
	return nil
}

// Stats returns the client-side accounting so far.
func (s *Session) Stats() Stats {
	return Stats{
		EventsWritten: s.eventsWritten.Load(),
		EventsSent:    s.eventsSent.Load(),
		EventsShed:    s.eventsShed.Load(),
		FramesSent:    s.framesSent.Load(),
		FramesShed:    s.framesShed.Load(),
		Stalls:        s.stalls.Load(),
		Resumes:       s.resumes.Load(),
	}
}
