package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"

	"fasttrack/internal/obs"
)

// metricsServer serves the live metrics registry at /metrics (expvar-
// style JSON) and the standard net/http/pprof endpoints under
// /debug/pprof/, for profiling a long analysis run in flight. Each
// tool of a run has its own registry; the one served is the last
// tool's, FastTrack's under -all.
type metricsServer struct {
	cur atomic.Pointer[obs.Registry]
	ln  net.Listener
}

// startMetrics begins serving on addr (e.g. ":6060"). It returns nil
// when addr is empty. Serving starts immediately so a scrape during the
// run works; before the first registry is attached, /metrics returns an
// empty snapshot.
func startMetrics(addr string) (*metricsServer, error) {
	if addr == "" {
		return nil, nil
	}
	ms := &metricsServer{}
	ms.cur.Store(obs.NewRegistry())
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		ms.cur.Load().Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	ms.ln = ln
	fmt.Fprintf(os.Stderr, "racedetect: metrics on http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
	go func() {
		// The listener lives for the process; Serve only returns on a
		// listener error, which there is no way to recover from here.
		_ = http.Serve(ln, mux)
	}()
	return ms, nil
}

// attach makes reg the registry served at /metrics.
func (ms *metricsServer) attach(reg *obs.Registry) {
	if ms != nil {
		ms.cur.Store(reg)
	}
}
