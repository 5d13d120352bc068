package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/core"
	"fasttrack/internal/detectors/djit"
	"fasttrack/internal/detectors/empty"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// daemon is a racedetectd process the benchmark started.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // session listener
	http     string // HTTP listener
	waitDone chan error
}

// readyLines collects the daemon's stdout, on which it announces its
// listen addresses.
type readyLines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *readyLines) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}

func (r *readyLines) value(prefix string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, line := range strings.Split(r.buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// startDaemon starts racedetectd on ephemeral ports and waits until its
// /readyz answers 200.
func (b *bench) startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-drain", "5s"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = b.env
	out := &readyLines{}
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, waitDone: make(chan error, 1)}
	go func() { d.waitDone <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		d.addr = out.value("racedetectd: listening on ")
		d.http = out.value("racedetectd: http on ")
		if d.addr != "" && d.http != "" {
			if resp, err := http.Get("http://" + d.http + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if time.Now().After(deadline) || b.ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("racedetectd did not become ready")
		}
		select {
		case err := <-d.waitDone:
			return nil, fmt.Errorf("racedetectd exited: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.waitDone:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.waitDone
		return fmt.Errorf("racedetectd did not drain")
	}
}

// rssP99 samples the daemon's RSS every rssInterval until done closes
// and returns the 99th percentile of the samples, in KiB. The high-water
// mark would be one sample of the garbage collector's timing; the p99 of
// a few hundred samples is the peak the workload holds.
func (d *daemon) rssP99(done <-chan struct{}) float64 {
	var samples []float64
	tick := time.NewTicker(rssInterval)
	defer tick.Stop()
	for {
		_, _, rss := procStatus(d.cmd.Process.Pid)
		samples = append(samples, float64(rss))
		select {
		case <-done:
			return quantile(samples, 0.99)
		case <-tick.C:
		}
	}
}

func (d *daemon) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + d.http + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// verdict is what a session over one trace must report: the races of an
// in-process FastTrack replay.
type verdict struct {
	races []fasttrack.Report
}

// verdictOf replays tr in process with FastTrack and with DJIT+ and
// fails unless both find the same racy variables; sessions are then
// checked against the FastTrack replay alone.
func verdictOf(tr trace.Trace) (verdict, error) {
	v := verdict{races: fasttrack.Replay(tr, core.New(tr.Threads(), 0), fasttrack.Fine)}
	ft, dj := racyVars(v.races), racyVars(fasttrack.Replay(tr, djit.New(tr.Threads(), 0), fasttrack.Fine))
	if !reflect.DeepEqual(ft, dj) {
		return v, fmt.Errorf("FastTrack finds racy variables %v, DJIT+ %v", ft, dj)
	}
	return v, nil
}

func racyVars(rs []fasttrack.Report) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range rs {
		if !seen[r.Var] {
			seen[r.Var] = true
			out = append(out, r.Var)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// check compares a session's race list with the in-process replay; a
// nil and an empty list are equal.
func (v verdict) check(got []fasttrack.Report) error {
	if (len(got) != 0 || len(v.races) != 0) && !reflect.DeepEqual(got, v.races) {
		return fmt.Errorf("daemon reported %d races, in-process FastTrack %d (lists: %v vs %v)",
			len(got), len(v.races), got, v.races)
	}
	return nil
}

// session is one measured client session.
type session struct {
	wall   time.Duration // Dial to Results
	events int64
	trace  int // rotation index
	write  time.Duration
	close  time.Duration
	frames int64
}

// streamSessions runs the closed loop: workers goroutines, each opening
// the next session of the rotation as soon as its previous one has its
// results, until dur has passed. It returns the sessions and the wall
// time of the whole loop.
func (b *bench) streamSessions(d *daemon, rot []sessionTrace, want []verdict, dur time.Duration, traced bool) ([]session, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []session
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && b.ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				s, err := b.session(d, rot, want, k, traced)
				mu.Lock()
				if b.attempt(err) {
					out = append(out, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// eventRate is the events the sessions analyzed per second of wall.
func eventRate(ss []session, wall time.Duration) float64 {
	var n int64
	for _, s := range ss {
		n += s.events
	}
	return float64(n) / wall.Seconds()
}

func (b *bench) session(d *daemon, rot []sessionTrace, want []verdict, k int, traced bool) (session, error) {
	i := k % len(rot)
	tr := rot[i].tr
	opts := []client.Option{client.WithTool("FastTrack")}
	if traced {
		opts = append(opts, client.WithTracing())
	}
	op := int(b.sessionOps.Add(1))
	end, root := b.tr.begin(op, 0, "session")
	t0 := time.Now()
	var s *client.Session
	var err error
	b.tr.do(op, root, "client.dial", func() { s, err = client.Dial(d.addr, opts...) })
	if err != nil {
		end()
		return session{}, fmt.Errorf("session %s: %w", rot[i].name, err)
	}
	t1 := time.Now()
	b.tr.do(op, root, "client.write", func() {
		for _, e := range tr {
			if err = s.Write(e); err != nil {
				return
			}
		}
	})
	t2 := time.Now()
	if err == nil {
		b.tr.do(op, root, "client.close", func() { err = s.Close() })
	}
	t3 := time.Now()
	var res client.Results
	if err == nil {
		b.tr.do(op, root, "client.results", func() { res, err = s.Results() })
	}
	wall := time.Since(t0)
	end()
	if err != nil {
		s.Close()
		return session{}, fmt.Errorf("session %s: %w", rot[i].name, err)
	}
	if res.Events != int64(len(tr)) {
		return session{}, fmt.Errorf("session %s: daemon analyzed %d of %d events", rot[i].name, res.Events, len(tr))
	}
	if err := want[i].check(res.Races); err != nil {
		return session{}, fmt.Errorf("session %s: %w", rot[i].name, err)
	}
	return session{wall: wall, events: res.Events, trace: i, write: t2.Sub(t1), close: t3.Sub(t2),
		frames: s.Stats().FramesSent}, nil
}

// daemonStream measures daemon-stream: a closed loop of workers
// concurrent client sessions against one racedetectd.
func (b *bench) daemonStream() error {
	var rot []sessionTrace
	var want []verdict
	var bin string
	var d *daemon
	dir, err := b.setup(func(dir string) error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
		var err error
		if bin, err = b.build(dir, "cmd/racedetectd"); err != nil {
			return err
		}
		if rot, err = rotation(b.seed, b.size); err != nil {
			return err
		}
		want = make([]verdict, len(rot))
		for i, st := range rot {
			if want[i], err = verdictOf(st.tr); err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
		}
		d, err = b.startDaemon(bin)
		return err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return err
	}
	if b.traced {
		if err := d.stop(); err != nil {
			return err
		}
		return b.traceDaemon(dir, bin, rot, want)
	}

	// The loop runs in refBlocks blocks. After each, the harness replays
	// every rotation trace in process with the EMPTY tool (the paper's
	// base) and with FastTrack, so each block's slowdowns divide by
	// references taken under the same load; the metrics are medians
	// over blocks.
	done := make(chan struct{})
	rss := make(chan float64, 1)
	go func() { rss <- d.rssP99(done) }()
	var ss []session
	var rates, overBase, overRef []float64
	for blk := 0; blk < refBlocks; blk++ {
		part, wall := b.streamSessions(d, rot, want, b.seconds/refBlocks, false)
		baseS, refS := make([]float64, len(rot)), make([]float64, len(rot))
		for i, st := range rot {
			baseS[i] = timeMedian(func() { rr.NewDispatcher(empty.New()).Feed(st.tr) })
			refS[i] = timeMedian(func() { fasttrack.Replay(st.tr, core.New(st.tr.Threads(), 0), fasttrack.Fine) })
		}
		var partS, base, ref float64
		for _, s := range part {
			partS += s.wall.Seconds()
			base += baseS[s.trace]
			ref += refS[s.trace]
		}
		if len(part) > 0 {
			rates = append(rates, eventRate(part, wall))
			overBase = append(overBase, partS/base)
			overRef = append(overRef, partS/ref)
		}
		ss = append(ss, part...)
	}
	close(done)
	rssK := <-rss
	if err := d.stop(); err != nil {
		return err
	}
	if len(ss) == 0 {
		return fmt.Errorf("no session succeeded")
	}
	var wallS []float64
	for _, s := range ss {
		wallS = append(wallS, s.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d sessions, %d beyond p90\n", len(ss), len(ss)-int(0.9*float64(len(ss))+0.5))
	b.set("run_s", "s", median(wallS))
	b.set("slowdown_go_run", "x", median(overBase))
	b.set("slowdown_go_race", "x", median(overRef))
	b.set("events_per_s", "events/s", median(rates))
	b.set("session_p50_s", "s", median(wallS))
	b.set("session_p90_s", "s", quantile(wallS, 0.9))
	b.set("peak_rss_mb", "MB", rssK/1024)
	b.setOKShare()
	return nil
}

// refBlocks is how many blocks the daemon-stream loop runs in, and
// refReps how many times each in-process reference replay runs after a
// block; the slowdowns divide by the median.
const (
	refBlocks = 5
	refReps   = 5
)

// timeMedian returns the median wall seconds of refReps calls of f.
func timeMedian(f func()) float64 {
	var xs []float64
	for i := 0; i < refReps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}

// streamLayers measures the client, svc and obs layers on the rotation
// rot: half of dur of sessions against an untraced racedetectd, then
// half against a racedetectd -trace with sessions opened WithTracing,
// whose /metrics carries the svc stage histograms.
func (b *bench) streamLayers(bin string, rot []sessionTrace, want []verdict, dur time.Duration) error {
	d, err := b.startDaemon(bin)
	if err != nil {
		return err
	}
	plain, plainWall := b.streamSessions(d, rot, want, dur/2, false)
	if err := d.stop(); err != nil {
		return err
	}
	td, err := b.startDaemon(bin, "-trace")
	if err != nil {
		return err
	}
	traced, tracedWall := b.streamSessions(td, rot, want, dur/2, true)
	snap, err := td.metrics()
	if stopErr := td.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no session succeeded")
	}

	var writeNs, closeS, frames []float64
	for _, s := range traced {
		writeNs = append(writeNs, float64(s.write.Nanoseconds())/float64(s.events))
		closeS = append(closeS, s.close.Seconds())
		frames = append(frames, float64(s.frames))
	}
	b.set("client.write_ns_per_event", "ns", median(writeNs))
	b.set("client.close_s", "s", median(closeS))
	b.set("client.frames", "count", median(frames))
	for _, st := range []string{"wire", "queue", "decode", "detect", "callback"} {
		h := snap.Histograms["svc.stage."+st+".ns"]
		b.set("svc.stage."+st+".p50_ns", "ns", float64(h.Quantile(0.5)))
		b.set("svc.stage."+st+".p99_ns", "ns", float64(h.Quantile(0.99)))
	}
	b.set("svc.stalls", "count", float64(snap.Counter("svc.backpressureStalls")))
	b.set("svc.queue_peak", "count", float64(snap.Gauge("svc.queueDepthPeak")))
	b.set("svc.frames", "count", float64(snap.Counter("svc.framesTotal")))
	b.set("obs.tracing_overhead", "x", eventRate(plain, plainWall)/eventRate(traced, tracedWall))
	return nil
}

// traceDaemon is the traced run of daemon-stream: the streaming layers
// for the measuring time, then the in-process layer probes, racedetect's
// analysis of the rotation traces and the rt per-call helper. The layers
// that need a Go program (instrument, build, the traced target) do no
// work on this workload and report 0.
func (b *bench) traceDaemon(dir, bin string, rot []sessionTrace, want []verdict) error {
	if err := b.streamLayers(bin, rot, want, b.seconds); err != nil {
		return err
	}
	trs := make([]trace.Trace, len(rot))
	for i, st := range rot {
		trs[i] = st.tr
	}
	lt := b.probeLayers(trs)
	b.setLayers(lt)
	if err := b.analyzeLayers(dir, trs, lt); err != nil {
		return err
	}
	if err := b.rtCalls(dir); err != nil {
		return err
	}
	for _, m := range programLayers {
		b.set(m.name, m.unit, 0)
	}
	return nil
}

// analyzeLayers times `racedetect -json` on the traces written as binary
// files: racedetect.analyze_s is the median over probeReps of the time
// for all of them, and racedetect.residual_s what the in-process decode,
// validate and FastTrack dispatch of lt do not account for.
func (b *bench) analyzeLayers(dir string, trs []trace.Trace, lt layerTimes) error {
	racedetect, err := b.build(dir, "cmd/racedetect")
	if err != nil {
		return err
	}
	var files []string
	for i, tr := range trs {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			return err
		}
		files = append(files, filepath.Join(dir, fmt.Sprintf("rotation-%d.trace", i)))
		if err := os.WriteFile(files[i], buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	var totals []float64
	for r := 0; r < probeReps; r++ {
		total := 0.0
		for _, f := range files {
			var o outcome
			var err error
			b.tr.do(0, 0, "analyze", func() {
				o, err = command{dir: dir, env: b.env, args: []string{racedetect, "-tool", "FastTrack", "-json", f}}.run(b.ctx)
			})
			if err == nil && o.exit != 0 && o.exit != 1 {
				err = fmt.Errorf("racedetect %s exited %d:\n%s", f, o.exit, o.stderr)
			}
			if !b.attempt(err) {
				continue
			}
			total += o.wall.Seconds()
		}
		totals = append(totals, total)
	}
	b.set("racedetect.analyze_s", "s", median(totals))
	b.set("racedetect.residual_s", "s", median(totals)-lt.analysisS)
	return nil
}
