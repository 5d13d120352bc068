// Command racedetectd is the streaming network ingestion daemon: it
// accepts racedetect client sessions over TCP (see the client package
// for the protocol), runs one monitored detector pipeline per session,
// and serves live session and metrics queries over HTTP.
//
// Usage:
//
//	racedetectd [-addr 127.0.0.1:7766] [-http 127.0.0.1:7767]
//	            [-queue 64] [-max-sessions 256]
//	            [-idle 5m] [-drain 30s] [-report.dir DIR] [-v]
//	            [-stuck-timeout 30s]
//	            [-trace] [-log-format text|json]
//
// -trace enables the pipeline tracer: sessions that request tracing in
// their handshake get per-frame stage spans (wire gap, queue wait,
// decode, detect, callback) served at /debug/trace, with stage-latency
// histograms in /metrics; frames slower than 50ms land in the
// slow-frame log. -log-format json emits structured one-line-JSON
// lifecycle events (session open/end, evictions, quarantines, admission
// refusals) on stderr, independent of -v.
//
// Each session runs full FastTrack (or the detector its handshake
// names) on every event. Every 250ms a watchdog quarantines any session
// whose worker has made no progress for -stuck-timeout. Admission
// refusals at the session cap carry a 1s redial hint.
//
// The HTTP listener (enabled by -http) serves:
//
//	/metrics              the live svc.* metrics registry as JSON
//	/sessions             summaries of live and recently finished sessions
//	/sessions/{id}/races  a session's current race reports (with provenance
//	                      evidence on sessions opened with it)
//	/sessions/{id}/stats  a session's detector statistics and health
//	/debug/trace          recent frame spans and the slow-frame log (-trace)
//	/healthz              liveness (always 200 while serving)
//	/readyz               readiness (503 when draining or at the session cap)
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// lets every session's already-received frames finish analysis,
// finalizes the sessions (writing JSON reports under -report.dir), and
// exits 0. Events a client has received a Flush acknowledgement for are
// never lost to a drain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fasttrack/internal/svc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7766", "TCP listen address for ingestion sessions")
	httpAddr := flag.String("http", "", "HTTP listen address for /metrics and /sessions (disabled if empty)")
	queue := flag.Int("queue", 64, "per-session frame queue depth (bounds buffered-but-unprocessed frames)")
	maxSessions := flag.Int("max-sessions", 256, "concurrent session cap")
	idle := flag.Duration("idle", 5*time.Minute, "evict sessions idle for this long (0 = never)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM")
	reportDir := flag.String("report.dir", "", "write one JSON report per finished session into this directory")
	stuck := flag.Duration("stuck-timeout", 0, "quarantine sessions whose worker makes no progress for this long (0 = default 30s, negative = disabled)")
	tracing := flag.Bool("trace", false, "enable the pipeline tracer (/debug/trace, svc.stage.* histograms)")
	logFormat := flag.String("log-format", "text", "lifecycle log format: text (free-form, needs -v) or json (structured one-line events)")
	verbose := flag.Bool("v", false, "log per-session lifecycle events")
	flag.Parse()

	logger := log.New(os.Stderr, "racedetectd: ", log.LstdFlags)
	logf := func(string, ...any) {}
	if *verbose {
		logf = logger.Printf
	}

	var eventLog func(svc.Event)
	switch *logFormat {
	case "text":
	case "json":
		// One JSON object per line on stderr, machine-parseable and
		// independent of the free-form -v lines.
		var mu sync.Mutex
		enc := json.NewEncoder(os.Stderr)
		eventLog = func(e svc.Event) {
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(struct {
				Time string `json:"time"`
				svc.Event
			}{time.Now().UTC().Format(time.RFC3339Nano), e})
		}
	default:
		logger.Fatalf("unknown -log-format %q (want text or json)", *logFormat)
	}

	srv := svc.New(svc.Config{
		QueueDepth:   *queue,
		MaxSessions:  *maxSessions,
		IdleTimeout:  *idle,
		ReportDir:    *reportDir,
		StuckTimeout: *stuck,
		Tracing:      *tracing,
		Logf:         logf,
		EventLog:     eventLog,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The ready line goes to stdout so supervisors (and the CI harness)
	// can wait for it; with -addr :0 it carries the chosen port.
	fmt.Printf("racedetectd: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	var httpSrv *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("racedetectd: http on %s\n", hln.Addr())
		httpSrv = &http.Server{Handler: srv.Handler()}
		go func() {
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				logger.Print("http:", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("received %v, draining (budget %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Print(err)
			os.Exit(1)
		}
		if httpSrv != nil {
			httpSrv.Shutdown(context.Background())
		}
		logger.Print("drained cleanly")
	case err := <-serveErr:
		if err != nil {
			logger.Fatal(err)
		}
	}
}
