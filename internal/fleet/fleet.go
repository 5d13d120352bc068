// Package fleet is the routing brain of a racedetectd fleet: it decides
// which daemon owns a session and which daemons are currently worth
// dialing at all.
//
// One racedetectd box hard-caps concurrent sessions long before it runs
// out of cycles — per-session detector state (shadow words, vector-clock
// slabs, lock tables) is the scarce resource — so the "millions of
// users" shape is many small sessions spread over many small nodes. The
// fleet tier keeps that spreading stable and load-aware without any
// central coordinator:
//
//   - Placement is rendezvous (highest-random-weight) hashing: every
//     (node, session-key) pair gets a deterministic weight and the
//     highest-weighted node owns the key. Unlike modulo placement,
//     adding or removing one node moves only ~K/N of K keys — the keys
//     the node itself owned — so a fleet resize never reshuffles
//     sessions that were happy where they were.
//
//   - Health is tracked per node from two independent signals: the
//     control plane (polling each node's /readyz, which publishes
//     draining, session-cap, soft-limit, and shed-rung pressure) and
//     the data plane (admission refusals carrying Retry-After hints,
//     observed by the dialing client itself). Either signal alone is
//     enough to steer; together they cover the window between a node
//     getting sick and the next probe noticing.
//
//   - Routing is ranking, not filtering: Route returns every node
//     ordered best-first (healthy ones in rendezvous order, then
//     pressured, then refused/capped, then draining/down), so a caller
//     with a retry budget can walk the list and the fleet degrades to
//     "any node that will have us" instead of failing closed when all
//     nodes look bad.
//
// The package deliberately depends on nothing above the standard
// library: the client package layers its dial/reconnect machinery on
// top, and cmd/racedetectfleet layers the aggregation endpoints on top.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Node names one racedetectd daemon: the TCP ingestion address clients
// dial, and optionally the HTTP introspection address whose /readyz the
// tracker polls ("" = data-plane signals only).
type Node struct {
	Addr string
	HTTP string
}

// ParseNode parses one node spec: "addr" or "addr=httpaddr", e.g.
// "127.0.0.1:7766=127.0.0.1:7767".
func ParseNode(spec string) (Node, error) {
	spec = strings.TrimSpace(spec)
	addr, httpAddr, _ := strings.Cut(spec, "=")
	n := Node{Addr: strings.TrimSpace(addr), HTTP: strings.TrimSpace(httpAddr)}
	if n.Addr == "" {
		return Node{}, fmt.Errorf("fleet: empty node address in spec %q", spec)
	}
	return n, nil
}

// ParseNodes parses a comma-separated node list, e.g.
// "a:7766,b:7766=b:7767,c:7766". Duplicate dial addresses are an error:
// a node listed twice would get double its rendezvous weight share.
func ParseNodes(spec string) ([]Node, error) {
	parts := strings.Split(spec, ",")
	nodes := make([]Node, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		if strings.TrimSpace(p) == "" {
			continue
		}
		n, err := ParseNode(p)
		if err != nil {
			return nil, err
		}
		if seen[n.Addr] {
			return nil, fmt.Errorf("fleet: duplicate node address %q", n.Addr)
		}
		seen[n.Addr] = true
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: no nodes in spec %q", spec)
	}
	return nodes, nil
}

// Status is the tracker's current view of one node, for the aggregator
// and for debugging steering decisions.
type Status struct {
	Node
	// Probed reports whether at least one /readyz probe has completed
	// (successfully or not); before that the control-plane fields are
	// unknown and the node is routed optimistically.
	Probed bool `json:"probed"`
	// Down means the last probe could not reach the node at all.
	Down bool `json:"down,omitempty"`
	// Control-plane state from the last successful /readyz probe.
	// Ready is additionally forced false while the node is Down.
	Ready          bool   `json:"ready"`
	Draining       bool   `json:"draining,omitempty"`
	SoftLimited    bool   `json:"softLimited,omitempty"`
	Shedding       bool   `json:"shedding,omitempty"`
	ActiveSessions int    `json:"activeSessions"`
	MaxSessions    int    `json:"maxSessions"`
	ShedSessions   int    `json:"shedSessions,omitempty"`
	NodeID         string `json:"nodeId,omitempty"`
	// RefusedUntil is the data-plane backoff deadline learned from an
	// admission refusal's Retry-After hint (zero when none is active).
	RefusedUntil time.Time `json:"refusedUntil,omitempty"`
	LastProbe    time.Time `json:"lastProbe,omitempty"`
	LastErr      string    `json:"lastErr,omitempty"`
}

// Readyz mirrors the JSON body of racedetectd's /readyz endpoint (see
// internal/svc); unknown fields are ignored so tracker and daemon can
// version independently.
type Readyz struct {
	Ready          bool   `json:"ready"`
	Draining       bool   `json:"draining"`
	ActiveSessions int    `json:"activeSessions"`
	MaxSessions    int    `json:"maxSessions"`
	SoftLimited    bool   `json:"softLimited"`
	Shedding       bool   `json:"shedding"`
	ShedSessions   int    `json:"shedSessions"`
	Quarantined    int64  `json:"quarantined"`
	Node           string `json:"node"`
}

// nodeState is the tracker's mutable per-node record; all fields are
// guarded by the tracker mutex.
type nodeState struct {
	Node
	probed       bool
	down         bool
	rz           Readyz
	refusedUntil time.Time
	lastProbe    time.Time
	lastErr      string
}

// DefaultRefusalBackoff is how long a node stays deprioritized after an
// admission refusal that carried no Retry-After hint.
const DefaultRefusalBackoff = time.Second

// Tracker routes session keys across a fixed node set with live health.
// All methods are safe for concurrent use.
type Tracker struct {
	mu    sync.Mutex
	nodes []*nodeState // rendezvous order is per-key, so slice order is arbitrary

	httpc *http.Client
	now   func() time.Time // injectable clock for tests

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a tracker over the given nodes. Polling does not start
// until Start is called; until then (and for nodes without an HTTP
// address) only data-plane signals steer.
func New(nodes []Node) *Tracker {
	t := &Tracker{
		httpc: &http.Client{Timeout: 2 * time.Second},
		now:   time.Now,
		stop:  make(chan struct{}),
	}
	for _, n := range nodes {
		t.nodes = append(t.nodes, &nodeState{Node: n})
	}
	return t
}

// Start begins polling every node's /readyz at the given interval
// (clamped to at least 10ms). Stop tears the poller down; it is also
// safe to call on a tracker that never started.
func (t *Tracker) Start(interval time.Duration) {
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		t.PollOnce(context.Background())
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.PollOnce(context.Background())
			}
		}
	}()
}

// Stop ends polling and waits for in-flight probes to finish.
func (t *Tracker) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

// PollOnce probes every node with an HTTP address once, in parallel,
// and updates the tracker's view. Nodes without an HTTP address are
// untouched.
func (t *Tracker) PollOnce(ctx context.Context) {
	t.mu.Lock()
	targets := make([]*nodeState, 0, len(t.nodes))
	for _, n := range t.nodes {
		if n.HTTP != "" {
			targets = append(targets, n)
		}
	}
	t.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range targets {
		wg.Add(1)
		go func(n *nodeState) {
			defer wg.Done()
			rz, err := t.probe(ctx, n.HTTP)
			t.mu.Lock()
			defer t.mu.Unlock()
			n.probed = true
			n.lastProbe = t.now()
			if err != nil {
				n.down = true
				n.lastErr = err.Error()
				return
			}
			n.down = false
			n.lastErr = ""
			n.rz = rz
		}(n)
	}
	wg.Wait()
}

// probe fetches one node's /readyz. A 503 is a healthy answer (the node
// is telling us it is not ready), only transport failures mark a node
// down.
func (t *Tracker) probe(ctx context.Context, httpAddr string) (Readyz, error) {
	url := httpAddr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return Readyz{}, err
	}
	resp, err := t.httpc.Do(req)
	if err != nil {
		return Readyz{}, err
	}
	defer resp.Body.Close()
	var rz Readyz
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		return Readyz{}, fmt.Errorf("fleet: decoding /readyz from %s: %w", httpAddr, err)
	}
	return rz, nil
}

// MarkRefused records a data-plane admission refusal: the node is
// deprioritized until the Retry-After hint expires (DefaultRefusalBackoff
// when the server gave none). Unknown addresses are ignored.
func (t *Tracker) MarkRefused(addr string, retryAfter time.Duration) {
	if retryAfter <= 0 {
		retryAfter = DefaultRefusalBackoff
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.findLocked(addr); n != nil {
		n.refusedUntil = t.now().Add(retryAfter)
	}
}

// MarkDown records a data-plane connection failure: dialing the node
// did not even reach a handshake.
func (t *Tracker) MarkDown(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Note: probed stays as-is — it tracks /readyz probes only, so a
	// dial failure on a never-probed node does not make its zero-value
	// control-plane state look authoritative.
	if n := t.findLocked(addr); n != nil {
		n.down = true
		n.lastErr = "dial failed"
	}
}

// MarkUp records a successful handshake with the node, clearing a
// data-plane down mark (the next probe refreshes the rest).
func (t *Tracker) MarkUp(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.findLocked(addr); n != nil {
		n.down = false
		n.lastErr = ""
	}
}

func (t *Tracker) findLocked(addr string) *nodeState {
	for _, n := range t.nodes {
		if n.Addr == addr {
			return n
		}
	}
	return nil
}

// Nodes returns the tracker's current per-node view, in the order the
// nodes were configured.
func (t *Tracker) Nodes() []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]Status, 0, len(t.nodes))
	for _, n := range t.nodes {
		st := Status{
			Node:   n.Node,
			Probed: n.probed,
			Down:   n.down,
			// A down node's rz is its last successful probe; don't let a
			// stale ready=true outlive reachability.
			Ready:          n.rz.Ready && !n.down,
			Draining:       n.rz.Draining,
			SoftLimited:    n.rz.SoftLimited,
			Shedding:       n.rz.Shedding,
			ActiveSessions: n.rz.ActiveSessions,
			MaxSessions:    n.rz.MaxSessions,
			ShedSessions:   n.rz.ShedSessions,
			NodeID:         n.rz.Node,
			LastProbe:      n.lastProbe,
			LastErr:        n.lastErr,
		}
		if n.refusedUntil.After(now) {
			st.RefusedUntil = n.refusedUntil
		}
		out = append(out, st)
	}
	return out
}

// Routing tiers, best first. Within a tier candidates keep rendezvous
// order, so tier demotion never reshuffles the placement of the nodes
// that stayed healthy.
const (
	tierHealthy  = iota // admitting, no pressure signals
	tierPressure        // admitting but soft-limited or shedding
	tierRefused         // recently refused, or /readyz says not ready
	tierLast            // draining or down: last resort only
)

// tierLocked classifies one node for routing at time now.
func (n *nodeState) tierLocked(now time.Time) int {
	switch {
	case n.down, n.probed && !n.down && n.rz.Draining:
		return tierLast
	case n.refusedUntil.After(now):
		return tierRefused
	case n.probed && !n.rz.Ready:
		return tierRefused
	case n.probed && (n.rz.SoftLimited || n.rz.Shedding):
		return tierPressure
	default:
		return tierHealthy
	}
}

// Route returns every node's dial address ranked for the given session
// key: the healthy rendezvous owner first, then the remaining healthy
// nodes in rendezvous order, then pressured, refused/capped, and
// finally draining/down nodes. A dialer with a retry budget walks the
// list in order; Owner is Route's first element.
func (t *Tracker) Route(key string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	type cand struct {
		addr   string
		tier   int
		weight uint64
	}
	cands := make([]cand, 0, len(t.nodes))
	for _, n := range t.nodes {
		cands = append(cands, cand{n.Addr, n.tierLocked(now), rendezvousWeight(n.Addr, key)})
	}
	// Insertion sort: node counts are small and the candidate set must
	// sort stably by (tier asc, weight desc).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.tier < a.tier || (b.tier == a.tier && b.weight > a.weight) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.addr
	}
	return out
}

// Owner returns the node that currently owns the key: the best-ranked
// routable node. ok is false only on an empty tracker.
func (t *Tracker) Owner(key string) (string, bool) {
	r := t.Route(key)
	if len(r) == 0 {
		return "", false
	}
	return r[0], true
}

// rendezvousWeight is the highest-random-weight score of placing key on
// node: a 64-bit mix of the two names. fnv64a gives per-name diffusion
// and the final avalanche (the murmur3 finalizer) decorrelates the
// combination, so one node's weights across keys and one key's weights
// across nodes both look uniform.
func rendezvousWeight(node, key string) uint64 {
	h := fnv64a(node) ^ (fnv64a(key) * 0x9e3779b97f4a7c15)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
