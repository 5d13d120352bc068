package svc

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/chaos"
	"fasttrack/trace"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// httpGET fetches a path from the server's HTTP surface.
func httpGET(t *testing.T, hs *httptest.Server, path string) (int, string) {
	t.Helper()
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(hs.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// TestAdmissionControl drives the server to its session cap: the hard
// cap refuses with a Retry-After hint, and a retrying dial gets in once
// capacity frees up.
func TestAdmissionControl(t *testing.T) {
	cfg := Config{
		MaxSessions:      5,
		RetryAfterHint:   100 * time.Millisecond,
		WatchdogInterval: -1,
	}
	srv, addr := startServer(t, cfg)

	var sessions []*client.Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	for i := 0; i < 5; i++ {
		s, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}

	// Session 6 hits the hard cap: refused with code session-cap and the
	// configured Retry-After hint (retries disabled so the refusal is
	// counted exactly once).
	_, err := client.Dial(addr, client.WithRetry(0, 0))
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("over-cap dial error %v, want ServerError", err)
	}
	if se.Code != client.ErrCodeSessionCap || !se.Temporary() {
		t.Errorf("over-cap refusal code %q (temporary %v), want session-cap", se.Code, se.Temporary())
	}
	if se.RetryAfter != cfg.RetryAfterHint {
		t.Errorf("RetryAfter = %v, want %v", se.RetryAfter, cfg.RetryAfterHint)
	}
	if n := srv.Registry().Snapshot().Counter("svc.admissionRefused"); n != 1 {
		t.Errorf("admissionRefused = %d, want 1", n)
	}

	// /readyz flags the saturated node; /healthz stays green.
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if code, body := httpGET(t, hs, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"ready": false`) {
		t.Errorf("/readyz at cap: code %d body %s, want 503 not-ready", code, body)
	}
	if code, body := httpGET(t, hs, "/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz at cap: code %d body %s, want 200 ok", code, body)
	}

	// A dial that honors the hint gets in as soon as a slot frees up.
	go func() {
		time.Sleep(30 * time.Millisecond)
		sessions[0].Close()
	}()
	s6, err := client.Dial(addr, client.WithRetry(8, time.Millisecond))
	if err != nil {
		t.Fatalf("retrying dial never admitted: %v", err)
	}
	sessions = append(sessions, s6)

	// s6 filled the freed slot, so the node is at cap again; freeing
	// another slot flips /readyz back to 200.
	if err := sessions[1].Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "closed session to release its slot", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.active < srv.cfg.MaxSessions
	})
	if code, _ := httpGET(t, hs, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after a slot freed: code %d, want 200", code)
	}
}

// fakeClock is the watchdog's injectable clock: it stands still until
// the test advances it, so a worker's age is exactly what the test says
// however loaded the host is.
type fakeClock struct{ ns atomic.Int64 }

// withFakeClock installs a fake clock on srv; call it before serve.
func withFakeClock(srv *Server) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(1) // 0 is the idle stamp
	srv.now = c.ns.Load
	return c
}

func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestWatchdogQuarantine wedges one session's analysis forever: the
// watchdog must quarantine exactly that session — severing its
// connection, keeping its monitor untouched, and keeping every HTTP
// probe responsive — while its neighbor streams on unharmed and
// Shutdown drains cleanly without waiting for the wedged worker.
func TestWatchdogQuarantine(t *testing.T) {
	wedged := make(chan struct{})
	// Released only after the server has fully drained (cleanup order:
	// this runs after serve's Shutdown), proving drain never waits for a
	// quarantined worker.
	t.Cleanup(func() { close(wedged) })

	flowing := make(chan struct{})
	close(flowing)
	var monitors atomic.Int32
	cfg := Config{
		WatchdogInterval: -1,
		StuckTimeout:     time.Minute, // of fake-clock time
		NewMonitor: func(h client.Handshake) (*fasttrack.Monitor, string, error) {
			if monitors.Add(1) == 1 {
				return gatedMonitor(wedged)(h) // first session blocks forever
			}
			return gatedMonitor(flowing)(h)
		},
	}
	srv := New(cfg)
	clock := withFakeClock(srv)
	addr := serve(t, srv)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	victim, err := client.Dial(addr, client.WithBatchSize(8), client.WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := victim.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vs := srv.lookup(victim.ID())
	waitUntil(t, "victim worker to wedge", func() bool { return vs.busySince.Load() != 0 })

	// The victim has now been busy for StuckTimeout. Every item the
	// neighbor ever starts is stamped after this, so no tick below can
	// find it that old.
	clock.advance(cfg.StuckTimeout)

	neighbor, err := client.Dial(addr, client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer neighbor.Close()
	tr := testTrace(11)
	want := serialRaces(t, tr)

	srv.governorTick()
	if got := vs.stateName(); got != "quarantined" {
		t.Fatalf("victim state %q after watchdog tick, want quarantined", got)
	}
	snap := srv.Registry().Snapshot()
	if n := snap.Gauge("svc.sessionsQuarantined"); n != 1 {
		t.Errorf("sessionsQuarantined = %d, want 1", n)
	}
	if n := snap.Counter("svc.governorQuarantines"); n != 1 {
		t.Errorf("governorQuarantines = %d, want 1", n)
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "svc.session."+victim.ID()+".") {
			t.Errorf("quarantined session metric %s not deleted", name)
		}
	}

	// The neighbor is untouched: full round trip, exact results.
	if err := streamAll(neighbor, tr); err != nil {
		t.Fatal(err)
	}
	if err := neighbor.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := neighbor.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("neighbor races diverged after quarantine: got %v want %v", res.Races, want)
	}
	// More ticks must not quarantine the healthy neighbor, idle or
	// still finishing its last item.
	for i := 0; i < 10; i++ {
		srv.governorTick()
	}
	if got := srv.lookup(neighbor.ID()).stateName(); got != "streaming" {
		t.Errorf("neighbor state %q after extra ticks, want streaming", got)
	}

	// Every HTTP surface stays responsive: the stats endpoint must not
	// touch the quarantined monitor (its lock is held by the wedged
	// worker forever).
	if _, body := httpGET(t, hs, "/sessions"); !strings.Contains(body, `"state": "quarantined"`) {
		t.Errorf("/sessions does not show the quarantine:\n%s", body)
	}
	if code, body := httpGET(t, hs, "/sessions/"+victim.ID()+"/stats"); code != http.StatusOK ||
		!strings.Contains(body, "quarantined") {
		t.Errorf("stats endpoint on quarantined session: code %d body %s", code, body)
	}
	if _, body := httpGET(t, hs, "/healthz"); !strings.Contains(body, `"quarantined": 1`) {
		t.Errorf("/healthz does not count the quarantine:\n%s", body)
	}

	// The victim's client fails closed.
	if err := victim.Flush(); err == nil {
		t.Error("Flush on quarantined session succeeded")
	}
}

// TestWatchdogSparesYoungBusyWorker pins that the watchdog acts on
// elapsed time, not on ticks: a worker busy on one item for less than
// StuckTimeout survives any number of ticks, however many land while
// it works, and is quarantined on the first tick once it reaches the
// timeout.
func TestWatchdogSparesYoungBusyWorker(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // after the drain, as above
	cfg := Config{
		WatchdogInterval: -1,
		StuckTimeout:     30 * time.Second, // of fake-clock time
		NewMonitor:       gatedMonitor(gate),
	}
	srv := New(cfg)
	clock := withFakeClock(srv)
	addr := serve(t, srv)

	sess, err := client.Dial(addr, client.WithBatchSize(8), client.WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sess.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vs := srv.lookup(sess.ID())
	waitUntil(t, "worker to start its wedged item", func() bool { return vs.busySince.Load() != 0 })

	// Far more ticks than StuckTimeout holds at the default interval,
	// spread over just under StuckTimeout of clock.
	const ticks = 1000
	for i := 0; i < ticks; i++ {
		clock.advance((cfg.StuckTimeout - time.Nanosecond) / ticks)
		srv.governorTick()
		if got := vs.stateName(); got != "streaming" {
			t.Fatalf("tick %d: busy worker younger than StuckTimeout is %s, want streaming", i+1, got)
		}
	}

	clock.advance(cfg.StuckTimeout)
	srv.governorTick()
	if got := vs.stateName(); got != "quarantined" {
		t.Fatalf("worker busy past StuckTimeout is %s, want quarantined", got)
	}
}

// TestQuarantineFreesHealthzCount: a quarantined session leaves the
// live session count /healthz reports, as it leaves admission's.
func TestQuarantineFreesHealthzCount(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // after the drain, as above
	cfg := Config{
		WatchdogInterval: -1,
		StuckTimeout:     time.Minute, // of fake-clock time
		NewMonitor:       gatedMonitor(gate),
	}
	srv := New(cfg)
	clock := withFakeClock(srv)
	addr := serve(t, srv)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	sess, err := client.Dial(addr, client.WithBatchSize(8), client.WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sess.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vs := srv.lookup(sess.ID())
	waitUntil(t, "worker to start its wedged item", func() bool { return vs.busySince.Load() != 0 })
	clock.advance(cfg.StuckTimeout)
	srv.governorTick()
	if got := vs.stateName(); got != "quarantined" {
		t.Fatalf("wedged session is %s, want quarantined", got)
	}
	_, body := httpGET(t, hs, "/healthz")
	for _, want := range []string{`"sessions": 0`, `"quarantined": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz after a quarantine lacks %s:\n%s", want, body)
		}
	}
}

// TestFaultConnLatency trickles a session through a high-latency uplink:
// per-write delays stack far past the idle timeout in aggregate, but no
// single gap exceeds it, so eviction must not misfire and the analysis
// must come back exact.
func TestFaultConnLatency(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 300 * time.Millisecond})
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := chaos.NewFaultConn(c)
		fc.WriteDelay = 25 * time.Millisecond
		return fc, nil
	}
	sess, err := client.Dial(addr, client.WithDialFunc(dial), client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(21)
	want := serialRaces(t, tr)
	if err := streamAll(sess, tr); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("slow-uplink races diverged: got %v want %v", res.Races, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Registry().Snapshot().Counter("svc.sessionsEvicted"); n != 0 {
		t.Errorf("%d sessions evicted under per-write latency", n)
	}
}

// TestFaultConnStallEvicted freezes the uplink mid-frame for longer
// than the idle timeout: that IS a dead session as far as the server
// can tell, and it must be evicted (the opposite boundary of the
// slow-but-alive cases above).
func TestFaultConnStallEvicted(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := chaos.NewFaultConn(c)
		fc.StallAt = 4096 // well past the handshake, inside the event stream
		fc.StallFor = 500 * time.Millisecond
		return fc, nil
	}
	sess, err := client.Dial(addr, client.WithDialFunc(dial),
		client.WithBatchSize(32), client.WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	id := sess.ID()
	for i := 0; i < 2000; i++ {
		if sess.Write(trace.Wr(0, uint64(i%64))) != nil {
			break // the server hung up mid-stall; that's the point
		}
	}
	sess.Flush() // outcome irrelevant; the reply may be lost to the eviction

	// The worker counts the eviction before it finalizes the session,
	// so wait for the state and then check the counter.
	waitUntil(t, "stalled session to be evicted", func() bool {
		return srv.lookup(id).stateName() == "evicted"
	})
	if n := srv.Registry().Snapshot().Counter("svc.sessionsEvicted"); n != 1 {
		t.Errorf("svc.sessionsEvicted = %d, want 1", n)
	}
}

// TestChaosSoak is the everything-at-once stability run: many client
// lifecycles at mixed fidelities racing a connection killer and a fast
// watchdog, ending in zero active sessions, no leaked per-session
// metrics, and a clean drain. A client whose session the
// killer severed must fail closed, and goes on only by dialing a new
// session. SOAK_SECONDS stretches it in CI; the default keeps it
// test-suite friendly.
func TestChaosSoak(t *testing.T) {
	dur := 1500 * time.Millisecond
	if s := os.Getenv("SOAK_SECONDS"); s != "" {
		secs, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("SOAK_SECONDS=%q: %v", s, err)
		}
		dur = time.Duration(secs * float64(time.Second))
	}
	cfg := Config{
		WatchdogInterval: 10 * time.Millisecond,
		StuckTimeout:     5 * time.Second,
		MaxSessions:      6,
		QueueDepth:       16,
		IdleTimeout:      2 * time.Second,
	}
	srv, addr := startServer(t, cfg)
	deadline := time.Now().Add(dur)

	// Connection killer: severs a random live session a few times per
	// soak second, driving the lost-session path. killed records each
	// severed session once its connection is closed.
	var killed sync.Map
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		rng := rand.New(rand.NewSource(99))
		for time.Now().Before(deadline) {
			time.Sleep(40 * time.Millisecond)
			srv.mu.Lock()
			var live []*session
			for _, ss := range srv.sessions {
				if ss.state.Load() == stateStreaming {
					live = append(live, ss)
				}
			}
			if len(live) > 0 {
				victim := live[rng.Intn(len(live))]
				victim.conn.Close()
				killed.Store(victim.id, true)
			}
			srv.mu.Unlock()
		}
	}()

	fidelities := []string{"full", "sampled(0.2)"}
	var (
		wg       sync.WaitGroup
		observed atomic.Int64 // sessions their client closed after the kill
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for time.Now().Before(deadline) {
				sess, err := client.Dial(addr,
					client.WithFidelity(fidelities[rng.Intn(len(fidelities))]),
					client.WithBatchSize(16),
					client.WithRetry(4, time.Millisecond),
					client.WithReadTimeout(2*time.Second))
				if err != nil {
					time.Sleep(5 * time.Millisecond) // cap refusal; try again
					continue
				}
				tr := testTrace(rng.Int63n(64))
				for _, e := range tr {
					if sess.Write(e) != nil {
						break
					}
				}
				sess.Flush() // failures are part of the weather
				_, severed := killed.Load(sess.ID())
				err = sess.Close()
				if !severed {
					continue
				}
				// The server hung up before Close was sent, so no
				// CloseOK can come back: the session must fail closed.
				observed.Add(1)
				if err == nil {
					t.Errorf("session %s: Close after its connection was killed returned nil", sess.ID())
				} else if sess.Err() == nil {
					t.Errorf("session %s: Close failed (%v) but the session has no sticky error", sess.ID(), err)
				}
			}
		}(c)
	}
	wg.Wait()
	<-killerDone
	if observed.Load() == 0 {
		t.Error("no client closed a session after the killer severed it")
	}

	// Quiescence: every session winds down, nothing leaks.
	waitUntil(t, "all sessions to finalize", func() bool {
		return srv.Registry().Snapshot().Gauge("svc.sessionsActive") == 0
	})
	snap := srv.Registry().Snapshot()
	if n := snap.Gauge("svc.sessionsQuarantined"); n != 0 {
		t.Errorf("%d sessions quarantined during soak (nothing wedges here)", n)
	}
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range m {
			if strings.HasPrefix(name, "svc.session.") {
				t.Errorf("leaked per-session metric %s", name)
			}
		}
	}
	if snap.Counter("svc.eventsTotal") == 0 {
		t.Error("soak ingested nothing")
	}
	// startServer's cleanup asserts the clean drain.
}
