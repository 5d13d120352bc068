package client

// Fleet-routed dialing: a Fleet wraps internal/fleet's rendezvous
// tracker and hands sessions the routing hooks (config.route/observe)
// that make Dial and reconnect sweep the ranked candidate list instead
// of a single address. The split of responsibilities:
//
//   - internal/fleet decides WHERE a session key should live and which
//     nodes are currently worth trying, from /readyz probes and the
//     refusal outcomes this package reports back;
//   - this file decides WHEN to consult it — at first dial and at every
//     resume — and translates wire-level outcomes (ServerError codes,
//     Retry-After hints, transport failures) into tracker marks.
//
// Placement is sticky by key, not by connection: a session that fails
// over to a non-owner (its owner was draining) will route back to the
// owner on its next resume once the owner is healthy again, because
// Route re-ranks on every sweep.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fasttrack/internal/fleet"
)

// Fleet is a routed client view over a set of racedetectd nodes. It
// owns the health tracker (and its /readyz poller, when any node has an
// HTTP address); every Session opened through Dial shares it, so one
// session's refusal steers the next session away immediately.
type Fleet struct {
	tracker *fleet.Tracker
}

// probeInterval is how often a fleet polls each node's /readyz. Nodes
// without an HTTP address are never polled; only data-path refusal
// signals steer away from them.
const probeInterval = time.Second

// NewFleet builds a routed client over the given node specs — a
// comma-separated list of "addr" or "addr=httpaddr" entries (see
// fleet.ParseNodes) — and starts health probing. Close releases the
// poller.
func NewFleet(spec string) (*Fleet, error) {
	nodes, err := fleet.ParseNodes(spec)
	if err != nil {
		return nil, err
	}
	return NewFleetNodes(nodes), nil
}

// NewFleetNodes is NewFleet for an already-parsed node list.
func NewFleetNodes(nodes []fleet.Node) *Fleet {
	f := &Fleet{tracker: fleet.New(nodes)}
	for _, n := range nodes {
		if n.HTTP != "" {
			f.tracker.Start(probeInterval)
			break
		}
	}
	return f
}

// Close stops the fleet's health poller. Sessions already open are
// unaffected (they hold their own connections), but their resume sweeps
// will route on the tracker's last observed state.
func (f *Fleet) Close() { f.tracker.Stop() }

// Nodes returns the fleet's current per-node health view.
func (f *Fleet) Nodes() []fleet.Status { return f.tracker.Nodes() }

// Owner returns the node that currently owns the session key.
func (f *Fleet) Owner(key string) (string, bool) { return f.tracker.Owner(key) }

// Dial opens a session for the given routing key: the key's rendezvous
// owner is tried first, then the remaining nodes in health-then-weight
// order, reusing Dial's retry budget across the sweep. The session
// remembers the fleet for its lifetime — a mid-session connection loss
// re-sweeps the current ranking (WithReconnect), which is how failover
// away from a dead or draining node happens. An empty key routes the
// session randomly (fresh anonymous sessions spread uniformly).
func (f *Fleet) Dial(key string, opts ...Option) (*Session, error) {
	if key == "" {
		key = fmt.Sprintf("anon-%016x", rand.Uint64())
	}
	opts = append(opts, f.route(key))
	primary, ok := f.tracker.Owner(key)
	if !ok {
		return nil, errors.New("client: fleet has no nodes")
	}
	return Dial(primary, opts...)
}

// route is the Option that installs the fleet's routing hooks into a
// session's config.
func (f *Fleet) route(key string) Option {
	return func(c *config) {
		c.route = func() []string { return f.tracker.Route(key) }
		c.observe = func(addr string, err error) {
			var se *ServerError
			switch {
			case err == nil:
				f.tracker.MarkUp(addr)
			case errors.As(err, &se):
				if se.Temporary() {
					// Capped or draining: back off this node for the
					// server's Retry-After hint.
					f.tracker.MarkRefused(addr, se.RetryAfter)
				}
				// A permanent refusal (bad handshake, unknown tool) says
				// nothing about the node's health — no mark.
			default:
				f.tracker.MarkDown(addr)
			}
		}
	}
}

// DialFleet opens one session on a fleet of racedetectd nodes, given as
// a comma-separated node-spec list ("addr" or "addr=httpaddr" per
// node). A random session key picks the owning node by rendezvous
// hashing; unhealthy owners are swept past
// using the regular retry budget, and with WithReconnect a mid-session
// node death fails the session over to the next-ranked node. The
// fleet's health poller lives exactly as long as the session.
//
// Callers opening many sessions, or keeping related sessions on one
// node by key, should build one Fleet and use its Dial instead, so all
// sessions share one tracker and each other's steering signals.
func DialFleet(spec string, opts ...Option) (*Session, error) {
	f, err := NewFleet(spec)
	if err != nil {
		return nil, err
	}
	s, err := f.Dial("", opts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		<-s.dead
		f.Close()
	}()
	return s, nil
}
