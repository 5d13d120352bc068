package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/chaos"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// startServer boots a server on a loopback listener and returns it with
// its dial address; it is drained at test end.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	return srv, serve(t, srv)
}

// serve is startServer for a server the test has adjusted after New
// (a fake watchdog clock, say): it serves srv and returns its address.
func serve(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// serialRaces is the ground truth: the race set of the in-process
// serial replay the network path must reproduce exactly.
func serialRaces(t *testing.T, tr trace.Trace) []fasttrack.Report {
	t.Helper()
	tool, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	return fasttrack.Replay(tr, tool, fasttrack.Fine)
}

func testTrace(seed int64) trace.Trace {
	return sim.RandomTrace(rand.New(rand.NewSource(seed)), sim.DefaultRandomConfig())
}

// streamAll writes a whole trace through a client session.
func streamAll(sess *client.Session, tr trace.Trace) error {
	for _, e := range tr {
		if err := sess.Write(e); err != nil {
			return err
		}
	}
	return nil
}

func sameRaces(got, want []fasttrack.Report) bool {
	if len(got) != len(want) {
		return false
	}
	if len(got) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

func TestSessionRoundTrip(t *testing.T) {
	_, addr := startServer(t, Config{})
	tr := testTrace(1)
	want := serialRaces(t, tr)

	sess, err := client.Dial(addr, client.WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" {
		t.Error("empty session id")
	}
	if err := streamAll(sess, tr); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Events) != len(tr) {
		t.Errorf("Events = %d, want %d", res.Events, len(tr))
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("remote races = %v\nwant %v", res.Races, want)
	}
	if res.Stats.Events != int64(len(tr)) {
		t.Errorf("Stats.Events = %d, want %d", res.Stats.Events, len(tr))
	}
	if !res.Health.Healthy {
		t.Errorf("unhealthy session: %+v", res.Health)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// The final snapshot stays available after Close.
	res2, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRaces(res2.Races, want) {
		t.Errorf("final races = %v, want %v", res2.Races, want)
	}
	// Writes after Close fail closed.
	if err := sess.Write(trace.Wr(0, 1)); err == nil {
		t.Error("Write after Close succeeded")
	}
}

// TestConcurrentSessions runs several sessions at once, each with its
// own trace, and requires every session's race set to match its own
// serial replay exactly — no cross-session bleed. Run under -race this
// is also the service's data-race gauntlet.
func TestConcurrentSessions(t *testing.T) {
	srv, addr := startServer(t, Config{})
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n*2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tr := testTrace(seed)
			want := serialRaces(t, tr)
			sess, err := client.Dial(addr, client.WithBatchSize(64))
			if err != nil {
				errs <- err
				return
			}
			if err := streamAll(sess, tr); err != nil {
				errs <- err
				return
			}
			res, err := sess.Results()
			if err != nil {
				errs <- err
				return
			}
			if err := sess.Close(); err != nil {
				errs <- err
				return
			}
			if int(res.Events) != len(tr) {
				errs <- fmt.Errorf("seed %d: events %d, want %d", seed, res.Events, len(tr))
			}
			if !sameRaces(res.Races, want) {
				errs <- fmt.Errorf("seed %d: races %v, want %v", seed, res.Races, want)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Registry().Snapshot().Counter("svc.sessionsTotal"); got != n {
		t.Errorf("svc.sessionsTotal = %d, want %d", got, n)
	}
	// A session finalizes after its CloseOK reply is sent, so the gauge
	// reaches 0 shortly after the last Close returns, not before.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Registry().Snapshot().Gauge("svc.sessionsActive") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("svc.sessionsActive = %d after every session closed, want 0",
				srv.Registry().Snapshot().Gauge("svc.sessionsActive"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain leaves a session open (unflushed batch on the
// client is lost, but everything flushed is not) and drains the server:
// the session must finalize as drained with every acknowledged event
// analyzed, and its JSON report must carry the serial race set.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{ReportDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	tr := testTrace(3)
	want := serialRaces(t, tr)
	sess, err := client.Dial(ln.Addr().String(), client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := streamAll(sess, tr); err != nil {
		t.Fatal(err)
	}
	// The flush acknowledgement is the durability point being tested.
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	id := sess.ID()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after Shutdown, want nil", err)
	}

	// The client fails closed rather than silently continuing.
	if err := sess.Flush(); err == nil {
		t.Error("Flush after drain succeeded")
	}

	b, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatalf("session report: %v", err)
	}
	var rep struct {
		Schema  string         `json:"schema"`
		Session SessionInfo    `json:"session"`
		Result  client.Results `json:"result"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "fasttrack/svc-session/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Session.State != "drained" {
		t.Errorf("state = %q, want drained", rep.Session.State)
	}
	if int(rep.Result.Events) != len(tr) {
		t.Errorf("drained session analyzed %d events, want %d (flushed events were lost)",
			rep.Result.Events, len(tr))
	}
	if !sameRaces(rep.Result.Races, want) {
		t.Errorf("drained races = %v, want %v", rep.Result.Races, want)
	}
}

// gatedTool wraps FastTrack so every event blocks until the gate opens,
// simulating an arbitrarily slow analysis for the backpressure tests.
type gatedTool struct {
	fasttrack.Tool
	gate <-chan struct{}
}

func (g *gatedTool) HandleEvent(i int, e trace.Event) {
	<-g.gate
	g.Tool.HandleEvent(i, e)
}

// gatedServer boots a server whose sessions all analyze through a
// gated FastTrack; close the returned channel to let events flow.
func gatedServer(t *testing.T, cfg Config) (*Server, string, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	cfg.NewMonitor = gatedMonitor(gate)
	srv, addr := startServer(t, cfg)
	return srv, addr, gate
}

// gatedMonitor is a Config.NewMonitor hook whose FastTrack tools block
// on gate.
func gatedMonitor(gate chan struct{}) func(client.Handshake) (*fasttrack.Monitor, string, error) {
	return func(client.Handshake) (*fasttrack.Monitor, string, error) {
		inner, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{})
		if err != nil {
			return nil, "", err
		}
		mon := fasttrack.NewMonitor(fasttrack.WithTool(&gatedTool{Tool: inner, gate: gate}))
		return mon, "FastTrack", nil
	}
}

// TestBackpressure stalls the analysis and keeps streaming: the
// server's bounded queue must fill and stall the reader (visible in
// svc.backpressureStalls) instead of buffering the backlog, and once
// the analysis resumes every event must be analyzed.
func TestBackpressure(t *testing.T) {
	const queueDepth = 2
	srv, addr, gate := gatedServer(t, Config{QueueDepth: queueDepth})

	sess, err := client.Dial(addr, client.WithBatchSize(64), client.WithReadTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	const frames, perFrame = 40, 64
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < frames*perFrame; i++ {
			if err := sess.Write(trace.Wr(0, uint64(i%31))); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	// The worker is blocked on the first event; the reader must hit the
	// full queue and stall rather than keep buffering.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Registry().Snapshot().Counter("svc.backpressureStalls") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no backpressure stall observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if peak := srv.Registry().Snapshot().Gauge("svc.queueDepthPeak"); peak > queueDepth {
		t.Errorf("queue depth peak %d exceeds configured bound %d", peak, queueDepth)
	}

	close(gate) // resume the analysis
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != frames*perFrame {
		t.Errorf("after resume: %d events analyzed, want %d", res.Events, frames*perFrame)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// throttleConn blocks writes past a byte budget until released; it
// gives the overflow test a deterministic "transport is stuck" condition.
type throttleConn struct {
	net.Conn
	mu      sync.Mutex
	allowed int64
	written int64
	release chan struct{}
}

func (c *throttleConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	over := c.written+int64(len(p)) > c.allowed
	c.mu.Unlock()
	if over {
		<-c.release
	}
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	return n, err
}

// TestQueueOverflowBlocks wedges the transport after the handshake; once
// the client's bounded frame queue is full, Write must wait (counted in
// Stats().Stalls) rather than drop anything, and after the transport
// recovers the server must analyze every written event.
func TestQueueOverflowBlocks(t *testing.T) {
	_, addr := startServer(t, Config{})

	release := make(chan struct{})
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		// Budget covers the hello frame only; the first events frame
		// wedges until release.
		return &throttleConn{Conn: c, allowed: 64, release: release}, nil
	}
	sess, err := client.Dial(addr,
		client.WithDialFunc(dial),
		client.WithBatchSize(16),
		client.WithReadTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}

	// 40 frames: one wedged in the sender, 32 filling the client queue,
	// and the rest must wait for space.
	const events = 40 * 16
	wrote := make(chan error, 1)
	go func() {
		for i := 0; i < events; i++ {
			if err := sess.Write(trace.Wr(0, uint64(i))); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()

	deadline := time.Now().Add(10 * time.Second)
	for sess.Stats().Stalls == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no stall while the transport is wedged: %+v", sess.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != events {
		t.Errorf("server analyzed %d events, want %d", res.Events, events)
	}
	if st := sess.Stats(); st.EventsSent != events {
		t.Errorf("client sent %d events, want %d", st.EventsSent, events)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleEviction lets a session go quiet past the idle timeout: the
// server must evict it (freeing its monitor) and the client must fail
// closed on its next operation.
func TestIdleEviction(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	sess, err := client.Dial(addr, client.WithBatchSize(4), client.WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sess.Write(trace.Wr(0, uint64(i)))
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	ss := srv.lookup(sess.ID())

	// The worker counts the eviction, then finalizes: state, monitor
	// close, doneCh. Wait for the last of those.
	select {
	case <-ss.doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("session was never evicted")
	}
	if n := srv.Registry().Snapshot().Counter("svc.sessionsEvicted"); n != 1 {
		t.Errorf("svc.sessionsEvicted = %d, want 1", n)
	}
	if srv.lookup(sess.ID()) != ss {
		t.Error("evicted session not retained")
	}
	if got := ss.stateName(); got != "evicted" {
		t.Errorf("state = %q, want evicted", got)
	}
	if !ss.mon.Closed() {
		t.Error("evicted session's monitor still open (shadow state leaked)")
	}
	if err := sess.Flush(); err == nil {
		t.Error("Flush on evicted session succeeded")
	}
}

// TestIdleSlowFrameNotEvicted trickles one events frame a few bytes at
// a time: every gap is well under the idle timeout but the whole frame
// takes several timeouts to arrive. Idleness is measured between bytes,
// so the session must survive and analyze the frame.
func TestIdleSlowFrameNotEvicted(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 250 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := trace.NewFrameWriter(conn)
	fr := trace.NewFrameReader(conn, 0)
	hello, _ := json.Marshal(client.Handshake{Version: client.ProtocolVersion})
	if err := fw.WriteFrame(client.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fr.ReadFrame(); err != nil || ft != client.FrameHelloOK {
		t.Fatalf("hello reply: frame %d, err %v", ft, err)
	}

	// Seal one events frame in memory, then drip it over ~8 gaps whose
	// total far exceeds the idle timeout.
	var payload bytes.Buffer
	w := trace.NewWriter(&payload, trace.Binary)
	const events = 4
	for i := 0; i < events; i++ {
		if err := w.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := trace.NewFrameWriter(&frame).WriteFrame(client.FrameEvents, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	const chunks = 8
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(raw)/chunks, (i+1)*len(raw)/chunks
		if lo == hi {
			continue
		}
		if _, err := conn.Write(raw[lo:hi]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond) // 8 × 60ms ≈ 2× the idle timeout
	}

	flush, _ := json.Marshal(client.Seq{Seq: 1})
	if err := fw.WriteFrame(client.FrameFlush, flush); err != nil {
		t.Fatal(err)
	}
	ft, pl, err := fr.ReadFrame()
	if err != nil || ft != client.FrameFlushOK {
		t.Fatalf("flush reply: frame %d, err %v (session evicted mid-frame?)", ft, err)
	}
	var ok client.FlushOK
	if err := json.Unmarshal(pl, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Events != events {
		t.Errorf("server ingested %d events, want %d", ok.Events, events)
	}
	if n := srv.Registry().Snapshot().Counter("svc.sessionsEvicted"); n != 0 {
		t.Errorf("%d sessions evicted during an active slow transfer", n)
	}
}

// TestChaosFrameCorruption flips one byte inside an events frame: the
// session must fail closed with the CRC diagnosed, while a concurrent
// clean session on the same server is unaffected.
func TestChaosFrameCorruption(t *testing.T) {
	_, addr := startServer(t, Config{})

	// Clean neighbor first, left open across the chaos below.
	trClean := testTrace(5)
	want := serialRaces(t, trClean)
	clean, err := client.Dial(addr, client.WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := streamAll(clean, trClean); err != nil {
		t.Fatal(err)
	}

	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := chaos.NewFaultConn(c)
		// Past the hello frame (~22 bytes), inside the first events
		// frame's payload.
		fc.FlipByte = 40
		return fc, nil
	}
	sess, err := client.Dial(addr,
		client.WithDialFunc(dial),
		client.WithBatchSize(8),
		client.WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	for i := 0; i < 8 && opErr == nil; i++ {
		opErr = sess.Write(trace.Wr(0, uint64(i)))
	}
	if opErr == nil {
		opErr = sess.Flush()
	}
	if opErr == nil {
		t.Fatal("corrupted stream was accepted")
	}
	if !strings.Contains(opErr.Error(), client.ErrCodeBadFrame) {
		t.Errorf("error %q does not carry the bad-frame code", opErr)
	}

	// The neighbor session still produces the exact serial race set.
	res, err := clean.Results()
	if err != nil {
		t.Fatalf("clean neighbor poisoned: %v", err)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("neighbor races = %v, want %v", res.Races, want)
	}
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosConnectionReset tears the connection mid-stream; the client
// must fail closed and the server must finalize the session without
// hanging its worker.
func TestChaosConnectionReset(t *testing.T) {
	srv, addr := startServer(t, Config{})
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := chaos.NewFaultConn(c)
		fc.ResetAfter = 120 // inside the event stream, past the handshake
		return fc, nil
	}
	sess, err := client.Dial(addr,
		client.WithDialFunc(dial),
		client.WithBatchSize(8),
		client.WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	for i := 0; i < 512 && opErr == nil; i++ {
		opErr = sess.Write(trace.Wr(0, uint64(i)))
	}
	if opErr == nil {
		opErr = sess.Flush()
	}
	if opErr == nil {
		t.Fatal("torn connection went unnoticed")
	}

	// Fail closed: the first error sticks, and every later operation
	// returns it rather than starting over on a new connection.
	sticky := sess.Err()
	if sticky == nil {
		t.Fatalf("operation failed (%v) but the session has no sticky error", opErr)
	}
	if !errors.Is(opErr, sticky) {
		t.Errorf("first failing operation returned %v, sticky error is %v", opErr, sticky)
	}
	if err := sess.Write(trace.Wr(0, 0)); !errors.Is(err, sticky) {
		t.Errorf("Write after the tear: %v, want the sticky %v", err, sticky)
	}
	if err := sess.Flush(); !errors.Is(err, sticky) {
		t.Errorf("Flush after the tear: %v, want the sticky %v", err, sticky)
	}
	if _, err := sess.Results(); !errors.Is(err, sticky) {
		t.Errorf("Results after the tear: %v, want the sticky %v", err, sticky)
	}
	if err := sess.Close(); !errors.Is(err, sticky) {
		t.Errorf("Close after the tear: %v, want the sticky %v", err, sticky)
	}

	// The server session finalizes (worker exits) despite the tear.
	waitUntil(t, "torn session to finalize", func() bool {
		return srv.Registry().Snapshot().Gauge("svc.sessionsActive") == 0
	})
	// The cut lands inside an events frame. A connection that ends
	// mid-frame is a lost peer, not a damaged stream: the session is
	// lost, not failed, and counts as no failure.
	info := srv.lookup(sess.ID()).info()
	if info.State != "lost" {
		t.Errorf("torn session finalized as %s (%q), want lost", info.State, info.Err)
	}
	if n := srv.Registry().Snapshot().Counter("svc.sessionsFailed"); n != 0 {
		t.Errorf("svc.sessionsFailed = %d after a dropped connection, want 0", n)
	}
}

// TestHandshakeRejections covers the refusal paths: unknown tool,
// bad policy, session cap.
func TestHandshakeRejections(t *testing.T) {
	_, addr := startServer(t, Config{MaxSessions: 1})
	if _, err := client.Dial(addr, client.WithTool("NoSuchTool")); err == nil ||
		!strings.Contains(err.Error(), client.ErrCodeUnknownTool) {
		t.Errorf("unknown tool: err = %v", err)
	}
	if _, err := client.Dial(addr, client.WithValidation("bogus")); err == nil ||
		!strings.Contains(err.Error(), client.ErrCodeBadRequest) {
		t.Errorf("bad policy: err = %v", err)
	}

	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := client.Dial(addr); err == nil ||
		!strings.Contains(err.Error(), client.ErrCodeSessionCap) {
		t.Errorf("over cap: err = %v", err)
	}
}

// TestHostileIDsFailOnlyTheirSession: a single event naming an absurd
// id would make the detector's dense tables allocate without bound and
// take the whole daemon down. Every session is held to the identifier
// caps whatever its policy, so the hostile session alone fails, with a
// decode error; a session streaming alongside it keeps its race list,
// and the server keeps serving.
func TestHostileIDsFailOnlyTheirSession(t *testing.T) {
	srv, addr := startServer(t, Config{})
	tr := testTrace(1)
	want := serialRaces(t, tr)
	bystander, err := client.Dial(addr, client.WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr) / 2
	if err := streamAll(bystander, tr[:half]); err != nil {
		t.Fatal(err)
	}
	if err := bystander.Flush(); err != nil {
		t.Fatal(err)
	}

	const bigTid = 1<<24 - 1
	for _, tc := range []struct {
		name, policy string
		events       trace.Trace
	}{
		{"target", "off", trace.Trace{trace.Wr(0, 1<<40)}},
		{"thread", "off", trace.Trace{trace.ForkOf(0, bigTid), trace.Wr(bigTid, 1)}},
		{"target-repair", "repair", trace.Trace{trace.Wr(0, 1<<40)}},
		{"thread-strict", "strict", trace.Trace{trace.ForkOf(0, bigTid), trace.Wr(bigTid, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := client.Dial(addr, client.WithValidation(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			if err := streamAll(sess, tc.events); err != nil {
				t.Fatal(err)
			}
			var se *client.ServerError
			if err := sess.Close(); !errors.As(err, &se) || se.Code != client.ErrCodeDecode {
				t.Fatalf("Close: %v, want a %s server error", err, client.ErrCodeDecode)
			}
			waitUntil(t, "hostile session to finalize", func() bool {
				return srv.lookup(sess.ID()).done()
			})
			if info := srv.lookup(sess.ID()).info(); info.State != "failed" {
				t.Errorf("hostile session ended %s (%q), want failed", info.State, info.Err)
			}
		})
	}

	if err := streamAll(bystander, tr[half:]); err != nil {
		t.Fatal(err)
	}
	if err := bystander.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := bystander.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("bystander races = %v\nwant %v", res.Races, want)
	}
	fresh, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("server stopped serving: %v", err)
	}
	if err := streamAll(fresh, tr); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := fresh.Results(); err != nil || !sameRaces(res.Races, want) {
		t.Errorf("session after the hostile ones: races %v, err %v; want %v", res.Races, err, want)
	}
}

// TestDialRetry proves the bounded-retry dial: two transient failures,
// then success.
func TestDialRetry(t *testing.T) {
	_, addr := startServer(t, Config{})
	attempts := 0
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		attempts++
		if attempts <= 2 {
			return nil, fmt.Errorf("transient failure %d", attempts)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	sess, err := client.Dial(addr,
		client.WithDialFunc(dial),
		client.WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatalf("dial with retries: %v", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	sess.Close()

	attempts = 0
	alwaysFail := func(string, time.Duration) (net.Conn, error) {
		attempts++
		return nil, fmt.Errorf("down")
	}
	if _, err := client.Dial(addr, client.WithDialFunc(alwaysFail),
		client.WithRetry(2, time.Millisecond)); err == nil {
		t.Error("dial against a dead dialer succeeded")
	}
	if attempts != 3 { // initial + 2 retries
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

// TestHTTPEndpoints exercises the query surface next to /metrics.
func TestHTTPEndpoints(t *testing.T) {
	srv, addr := startServer(t, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	tr := testTrace(7)
	want := serialRaces(t, tr)
	sess, err := client.Dial(addr, client.WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := streamAll(sess, tr); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var infos []SessionInfo
	if code := get("/sessions", &infos); code != http.StatusOK {
		t.Fatalf("/sessions: status %d", code)
	}
	if len(infos) != 1 || infos[0].ID != sess.ID() || infos[0].State != "streaming" {
		t.Errorf("/sessions = %+v", infos)
	}
	if int(infos[0].Events) != len(tr) {
		t.Errorf("/sessions events = %d, want %d", infos[0].Events, len(tr))
	}

	var res client.Results
	if code := get("/sessions/"+sess.ID()+"/races", &res); code != http.StatusOK {
		t.Fatalf("/races: status %d", code)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("/races = %v, want %v", res.Races, want)
	}

	var stats struct {
		SessionInfo
		Stats fasttrack.Stats `json:"stats"`
	}
	if code := get("/sessions/"+sess.ID()+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if stats.Stats.Events != int64(len(tr)) {
		t.Errorf("/stats events = %d, want %d", stats.Stats.Events, len(tr))
	}

	if code := get("/sessions/nope/races", nil); code != http.StatusNotFound {
		t.Errorf("missing session: status %d", code)
	}
	var snap map[string]any
	if code := get("/metrics", &snap); code != http.StatusOK {
		t.Errorf("/metrics: status %d", code)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// A session finalizes after its CloseOK reply is sent. Once it has,
	// it stays queryable with its final state, and its per-session
	// metrics are deleted.
	waitUntil(t, "session to finalize", func() bool {
		return srv.Registry().Snapshot().Gauge("svc.sessionsActive") == 0
	})
	if code := get("/sessions", &infos); code != http.StatusOK || len(infos) != 1 {
		t.Fatalf("/sessions after close: %d, %+v", code, infos)
	}
	if infos[0].State != "completed" {
		t.Errorf("state after close = %q", infos[0].State)
	}
	for _, name := range srv.Registry().Names() {
		if strings.HasPrefix(name, "svc.session.") {
			t.Errorf("leaked per-session metric %q", name)
		}
	}
}

// TestStatsWhileMonitorWedged is the regression for the stats handler's
// check-then-act window: a worker wedged INSIDE the monitor (holding
// its lock, session still streaming, not yet quarantined) must not park
// the handler forever behind that lock. The old handler checked the
// quarantine state and then called the blocking Stats(); with the lock
// wedged it never returned and the probe's HTTP client hung until its
// own timeout.
func TestStatsWhileMonitorWedged(t *testing.T) {
	srv, addr, gate := gatedServer(t, Config{WatchdogInterval: -1})
	// Open the gate before startServer's cleanup drains (cleanups run
	// after this test function's defers), so shutdown never inherits the
	// wedge this test manufactures.
	defer close(gate)

	sess, err := client.Dial(addr, client.WithBatchSize(8), client.WithReadTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sess.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vs := srv.lookup(sess.ID())
	waitUntil(t, "worker to wedge inside the monitor", func() bool { return vs.busySince.Load() != 0 })

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	start := time.Now()
	code, body := httpGET(t, hs, "/sessions/"+sess.ID()+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats on wedged session: code %d body %s", code, body)
	}
	if !strings.Contains(body, "monitor lock busy") {
		t.Errorf("stats on wedged session did not report the busy lock:\n%s", body)
	}
	// Bounded by the stats budget, not the probe client's 5s timeout.
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("stats handler took %v on a wedged monitor, want ~%v", el, statsBudget)
	}
}

// TestHealthzWithServerMutexHeld is the liveness regression: /healthz
// must answer from atomics alone, so a stalled operation holding the
// server mutex (a slow drain, a stuck accept path) cannot make the
// liveness probe time out and get a live process killed.
func TestHealthzWithServerMutexHeld(t *testing.T) {
	srv, _ := startServer(t, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	srv.mu.Lock()
	defer srv.mu.Unlock()
	code, body := httpGET(t, hs, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz under held server mutex: code %d body %s", code, body)
	}
}

// rawSessionRaces opens a session with a hand-written hello payload,
// streams tr in 64-event frames, closes the session, and returns the
// JSON encoding of its final race list.
func rawSessionRaces(t *testing.T, addr, hello string, tr trace.Trace) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := trace.NewFrameWriter(conn)
	fr := trace.NewFrameReader(conn, 0)
	if err := fw.WriteFrame(client.FrameHello, []byte(hello)); err != nil {
		t.Fatal(err)
	}
	ft, pl, err := fr.ReadFrame()
	if err != nil || ft != client.FrameHelloOK {
		t.Fatalf("hello %s: reply frame %d %s, err %v", hello, ft, pl, err)
	}
	for i := 0; i < len(tr); i += 64 {
		var payload bytes.Buffer
		w := trace.NewWriter(&payload, trace.Binary)
		for _, e := range tr[i:min(i+64, len(tr))] {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteFrame(client.FrameEvents, payload.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	bye, _ := json.Marshal(client.Seq{Seq: 1})
	if err := fw.WriteFrame(client.FrameClose, bye); err != nil {
		t.Fatal(err)
	}
	ft, pl, err = fr.ReadFrame()
	if err != nil || ft != client.FrameCloseOK {
		t.Fatalf("close reply: frame %d %s, err %v", ft, pl, err)
	}
	var res client.Results
	if err := json.Unmarshal(pl, &res); err != nil {
		t.Fatal(err)
	}
	races, err := json.Marshal(res.Races)
	if err != nil {
		t.Fatal(err)
	}
	return races
}

// TestHandshakeLegacyShardsField: clients that predate the single
// ingestion path send a "shards" field in their hello, and clients that
// predate the removal of the fidelity ladder may ask for the "adaptive"
// fidelity. Unknown hello fields are ignored, so such a session is
// admitted and runs full FastTrack on the serial path, with a race list
// byte-identical to the same trace sent without the field. A legacy
// hello asking to resume, which clients sent before resume was removed,
// is refused.
func TestHandshakeLegacyShardsField(t *testing.T) {
	_, addr := startServer(t, Config{})
	tr := testTrace(9)
	plain := rawSessionRaces(t, addr, fmt.Sprintf(`{"version":%d}`, client.ProtocolVersion), tr)
	for _, field := range []string{`"shards":8`, `"fidelity":"adaptive"`} {
		hello := fmt.Sprintf(`{"version":%d,%s}`, client.ProtocolVersion, field)
		if legacy := rawSessionRaces(t, addr, hello, tr); !bytes.Equal(legacy, plain) {
			t.Errorf("race list with %s differs:\n got:  %s\n want: %s", field, legacy, plain)
		}
	}
	want, err := json.Marshal(serialRaces(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, want) {
		t.Errorf("session race list differs from local replay:\n got:  %s\n want: %s", plain, want)
	}
	if bytes.Equal(plain, []byte("null")) || bytes.Equal(plain, []byte("[]")) {
		t.Error("trace reported no races; the comparison needs a racy trace")
	}

	// Clients that predate the removal of resume asked to continue a
	// dropped session with "resumeOf" and "epoch". A fresh detector fed
	// only the rest of a stream reports false races, so that hello is
	// refused and the old client fails closed.
	resume := fmt.Sprintf(`{"version":%d,"resumeOf":"s000001","epoch":2}`, client.ProtocolVersion)
	if we := rawHelloRefusal(t, addr, resume); we.Code != client.ErrCodeBadRequest {
		t.Errorf("hello %s refused with %q (%s), want %q", resume, we.Code, we.Msg, client.ErrCodeBadRequest)
	}
}

// rawHelloRefusal sends a hand-written hello payload and returns the
// error frame the server must answer it with.
func rawHelloRefusal(t *testing.T, addr, hello string) client.WireError {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := trace.NewFrameWriter(conn).WriteFrame(client.FrameHello, []byte(hello)); err != nil {
		t.Fatal(err)
	}
	ft, pl, err := trace.NewFrameReader(conn, 0).ReadFrame()
	if err != nil || ft != client.FrameErrorMsg {
		t.Fatalf("hello %s: reply frame %d %s, err %v; want an error frame", hello, ft, pl, err)
	}
	var we client.WireError
	if err := json.Unmarshal(pl, &we); err != nil {
		t.Fatal(err)
	}
	return we
}

// halfRacyTrace has two threads write each of 2000 variables, the even
// ones under a common lock and the odd ones unsynchronized: 1000 races,
// one per odd variable, most of which an analysis of a fraction of the
// variables would miss.
func halfRacyTrace() trace.Trace {
	tr := trace.Trace{trace.ForkOf(0, 1), trace.ForkOf(0, 2)}
	for x := uint64(0); x < 2000; x++ {
		if x%2 == 0 {
			tr = append(tr, trace.Acq(1, 0), trace.Wr(1, x), trace.Rel(1, 0),
				trace.Acq(2, 0), trace.Wr(2, x), trace.Rel(2, 0))
		} else {
			tr = append(tr, trace.Wr(1, x), trace.Wr(2, x))
		}
	}
	return tr
}

// TestLegacySampledHelloRunsFull: clients that predate the removal of
// the sampled tier may ask for "sampled(p)" or "sampled" with a
// "sampleRate". Those fields are unknown now and ignored, so the
// session is admitted and runs full FastTrack: its race list is
// byte-identical to a plain hello's, a superset of what the sampled
// session reported.
func TestLegacySampledHelloRunsFull(t *testing.T) {
	_, addr := startServer(t, Config{})
	tr := halfRacyTrace()
	plain := rawSessionRaces(t, addr, fmt.Sprintf(`{"version":%d}`, client.ProtocolVersion), tr)
	for _, fields := range []string{
		`"fidelity":"sampled(0.1)","sampleRate":0.1`,
		`"fidelity":"sampled(1)"`,
		`"fidelity":"sampled","sampleRate":1`,
	} {
		hello := fmt.Sprintf(`{"version":%d,%s}`, client.ProtocolVersion, fields)
		if got := rawSessionRaces(t, addr, hello, tr); !bytes.Equal(got, plain) {
			t.Errorf("race list with %s (%d bytes) differs from a plain hello's (%d bytes)", fields, len(got), len(plain))
		}
	}
	if len(plain) < 100 {
		t.Errorf("plain session race list %s: the comparison needs a racy trace", plain)
	}
}
