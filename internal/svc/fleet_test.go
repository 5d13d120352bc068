package svc

// Fleet-tier end-to-end tests: node identity on the wire, the routed
// client against real servers (byte-identical race lists, steering away
// from full nodes, mid-session failover), and the liveness/stats
// regressions that keep a single wedged or locked component from taking
// the HTTP surface down with it.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fasttrack/client"
	"fasttrack/internal/fleet"
	"fasttrack/trace"
)

// TestStatsWhileMonitorWedged is the regression for the stats handler's
// check-then-act window: a worker wedged INSIDE the monitor (holding
// its lock, session still streaming, not yet quarantined) must not park
// the handler forever behind that lock. The old handler checked the
// quarantine state and then called the blocking Stats(); with the lock
// wedged it never returned and the probe's HTTP client hung until its
// own timeout.
func TestStatsWhileMonitorWedged(t *testing.T) {
	srv, addr, gate := gatedServer(t, Config{GovernorInterval: -1})
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
	srv, _ := startServer(t, Config{NodeID: "n7"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	srv.mu.Lock()
	defer srv.mu.Unlock()
	code, body := httpGET(t, hs, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz under held server mutex: code %d body %s", code, body)
	}
	if !strings.Contains(body, `"node": "n7"`) {
		t.Errorf("/healthz does not carry the node identity:\n%s", body)
	}
}

// TestNodeIdentity checks the fleet plumbing of Config.NodeID: the
// accepted handshake, admission refusals, /readyz (with the shed
// census), and the session listing all carry it.
func TestNodeIdentity(t *testing.T) {
	srv, addr := startServer(t, Config{NodeID: "n3", MaxSessions: 1, GovernorInterval: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Node(); got != "n3" {
		t.Errorf("Session.Node() = %q, want n3", got)
	}

	// The refusal at the cap is stamped too — that is what lets the
	// fleet tracker attribute data-path refusals without a probe.
	_, err = client.Dial(addr, client.WithRetry(0, 0))
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("dial at cap: %v, want ServerError", err)
	}
	if se.Node != "n3" {
		t.Errorf("refusal node = %q, want n3", se.Node)
	}

	// Shed census in /readyz: park the live session on the shed rung.
	srv.lookup(sess.ID()).rung.Store(rungShed)
	code, body := httpGET(t, hs, "/readyz")
	if code != http.StatusServiceUnavailable { // at the cap
		t.Errorf("/readyz at cap: code %d, want 503", code)
	}
	for _, want := range []string{`"node": "n3"`, `"shedding": true`, `"shedSessions": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/readyz missing %s:\n%s", want, body)
		}
	}
	if _, body := httpGET(t, hs, "/sessions"); !strings.Contains(body, `"node": "n3"`) {
		t.Errorf("/sessions entries not attributed to the node:\n%s", body)
	}
}

// fleetOfServers boots n servers with node ids n1..nN and returns their
// specs for the routed client.
func fleetOfServers(t *testing.T, n int, cfg func(i int) Config) ([]*Server, []fleet.Node) {
	t.Helper()
	srvs := make([]*Server, n)
	specs := make([]fleet.Node, n)
	for i := 0; i < n; i++ {
		c := Config{}
		if cfg != nil {
			c = cfg(i)
		}
		if c.NodeID == "" {
			c.NodeID = "n" + string(rune('1'+i))
		}
		var addr string
		srvs[i], addr = startServer(t, c)
		specs[i] = fleet.Node{Addr: addr}
	}
	return srvs, specs
}

// keyOwnedBy finds a session key whose rendezvous owner is the given
// address (bounded search; the hash spreads keys, so a handful of
// probes always suffices).
func keyOwnedBy(t *testing.T, f *client.Fleet, addr string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		key := "owned-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "-" + time.Duration(i).String()
		if owner, ok := f.Owner(key); ok && owner == addr {
			return key
		}
	}
	t.Fatal("no key found for owner ", addr)
	return ""
}

// TestFleetRoutedRoundTrip is the fleet correctness gate: sessions
// routed across three real servers produce race lists byte-identical to
// the in-process serial replay, keys spread across nodes, and the same
// key lands on the same node twice.
func TestFleetRoutedRoundTrip(t *testing.T) {
	_, specs := fleetOfServers(t, 3, nil)
	f := client.NewFleetNodes(specs) // no HTTP addresses: pure data-path routing
	defer f.Close()

	nodesUsed := make(map[string]int)
	for i := 0; i < 6; i++ {
		key := "trip-" + string(rune('a'+i))
		tr := testTrace(int64(100 + i))
		want := serialRaces(t, tr)

		sess, err := f.Dial(key, client.WithBatchSize(64))
		if err != nil {
			t.Fatal(err)
		}
		nodesUsed[sess.Node()]++

		// Stickiness: the owner the tracker reports is where we landed,
		// and a second dial with the same key agrees.
		if owner, _ := f.Owner(key); owner != sess.Addr() {
			t.Errorf("key %s: landed on %s, owner is %s", key, sess.Addr(), owner)
		}
		again, err := f.Dial(key)
		if err != nil {
			t.Fatal(err)
		}
		if again.Node() != sess.Node() {
			t.Errorf("key %s: first dial node %s, second %s", key, sess.Node(), again.Node())
		}
		again.Close()

		if err := streamAll(sess, tr); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Results()
		if err != nil {
			t.Fatal(err)
		}
		if !sameRaces(res.Races, want) {
			t.Errorf("key %s on %s: routed races = %v\nwant %v", key, sess.Node(), res.Races, want)
		}
	}
	if len(nodesUsed) < 2 {
		t.Errorf("6 keys all routed to one node: %v (rendezvous not spreading)", nodesUsed)
	}
}

// TestFleetSteersAroundFullNode: a dial whose owner refuses at its
// session cap must land on the next-ranked node within the same sweep
// (no backoff wait), and the refusal must show up in the tracker so the
// NEXT dial avoids the full node up front.
func TestFleetSteersAroundFullNode(t *testing.T) {
	srvs, specs := fleetOfServers(t, 2, func(i int) Config {
		return Config{MaxSessions: 1, RetryAfterHint: 50 * time.Millisecond, GovernorInterval: -1}
	})
	_ = srvs
	f := client.NewFleetNodes(specs)
	defer f.Close()

	key := keyOwnedBy(t, f, specs[0].Addr)

	// Fill the owner's only slot out-of-band.
	squatter, err := client.Dial(specs[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()

	sess, err := f.Dial(key, client.WithRetry(0, 0)) // no retry budget: the sweep alone must succeed
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Node(); got != "n2" {
		t.Errorf("dial with full owner landed on %q, want n2", got)
	}

	// The refusal left a data-path mark steering later dials.
	for _, st := range f.Nodes() {
		if st.Addr == specs[0].Addr && st.RefusedUntil.IsZero() {
			t.Errorf("full node has no refusal backoff recorded: %+v", st)
		}
	}
}

// TestFleetFailover: killing a session's node mid-stream moves the
// session to the surviving node through the reconnect path — the fleet
// re-sweep marks the dead node down and resumes on the next-ranked one.
func TestFleetFailover(t *testing.T) {
	// The dying node is built by hand so the test controls its shutdown;
	// the survivor uses the normal harness.
	dying := New(Config{NodeID: "doomed", GovernorInterval: -1})
	dyingLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dyingDone := make(chan error, 1)
	go func() { dyingDone <- dying.Serve(dyingLn) }()

	_, survivorAddr := startServer(t, Config{NodeID: "survivor", GovernorInterval: -1})
	specs := []fleet.Node{{Addr: dyingLn.Addr().String()}, {Addr: survivorAddr}}
	f := client.NewFleetNodes(specs)
	defer f.Close()

	key := keyOwnedBy(t, f, specs[0].Addr)
	sess, err := f.Dial(key,
		client.WithBatchSize(8),
		client.WithReconnect(2),
		client.WithRetry(3, 10*time.Millisecond),
		client.WithReadTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Node() != "doomed" {
		t.Fatalf("session landed on %q, want its owner doomed", sess.Node())
	}

	// Race-free single-thread workload: failover re-sends only unacked
	// frames, so the race list is only comparable on a race-free stream.
	for i := 0; i < 64; i++ {
		if err := sess.Write(trace.Wr(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := dying.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-dyingDone

	for i := 0; i < 64; i++ {
		if err := sess.Write(trace.Rd(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The drop is usually only detected when these buffered frames hit
	// the dead socket, so the transient ErrResumed lands on this Flush —
	// which, unlike Close, is retriable. Once a Flush round-trips clean,
	// the session is settled on the survivor and Close is an ordinary
	// goodbye.
	for tries := 0; ; tries++ {
		err := sess.Flush()
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrResumed) || tries == 3 {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Node() != "survivor" {
		t.Errorf("session finished on %q, want survivor", sess.Node())
	}
	if sess.Addr() != survivorAddr {
		t.Errorf("session addr %s, want %s", sess.Addr(), survivorAddr)
	}
	// Usually one resume; the drop can surface twice (reader EOF and an
	// in-flight write each detecting it) — what matters is that the
	// session resumed at all and stayed inside the reconnect budget.
	if got := sess.Stats().Resumes; got < 1 || got > 2 {
		t.Errorf("resumes = %d, want 1 or 2", got)
	}
	if len(res.Races) != 0 {
		t.Errorf("race-free stream reported races after failover: %v", res.Races)
	}
	// The dead node is marked down in the shared tracker.
	for _, st := range f.Nodes() {
		if st.Addr == specs[0].Addr && !st.Down {
			t.Errorf("dead node not marked down: %+v", st)
		}
	}
}
