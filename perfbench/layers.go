package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fasttrack"
	"fasttrack/internal/core"
	"fasttrack/internal/detectors/djit"
	"fasttrack/internal/detectors/empty"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// probeReps is how many times each in-process layer probe repeats; the
// layer metrics are medians over them.
const probeReps = 3

// frameEvents is the client's default batch: one wire frame's events.
const frameEvents = 1024

// layerTimes are the in-process layer measurements of probeLayers.
type layerTimes struct {
	encodeNs, decodeNs, validateNs, dispatchNs float64 // per event
	fasttrackNs, djitNs, monitorNs             float64 // per event, EMPTY subtracted for the detectors
	vcOps, sameEpochShare, shadowBytes         float64
	bytesPerEvent                              float64 // binary encoding
	// analysisS is decode + validate + FastTrack dispatch of all the
	// traces, in seconds: the in-process share of racedetect's analysis.
	analysisS float64
}

// probeLayers times each layer's public entry point on the traces:
// trace.Writer (encode), trace.ReadBinary (decode), Trace.Validate,
// rr.Dispatcher.Feed with the EMPTY tool (the paper's base), with the
// FastTrack core and with DJIT+, and Monitor.IngestBatch in frame-sized
// batches. Every call is one span.
func (b *bench) probeLayers(trs []trace.Trace) layerTimes {
	var events float64
	for _, tr := range trs {
		events += float64(len(tr))
	}
	// secs runs f on every trace probeReps times, each call under a span
	// named name, and returns the median over reps of the summed time.
	secs := func(name string, f func(i int, tr trace.Trace)) float64 {
		var reps []float64
		for r := 0; r < probeReps; r++ {
			total := 0.0
			for i, tr := range trs {
				t0 := time.Now()
				b.tr.do(0, 0, name, func() { f(i, tr) })
				total += time.Since(t0).Seconds()
			}
			reps = append(reps, total)
		}
		return median(reps)
	}
	raw := make([][]byte, len(trs))
	var lt layerTimes
	encodeS := secs("trace.encode", func(i int, tr trace.Trace) {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf, trace.Binary)
		for _, e := range tr {
			w.Write(e)
		}
		w.Flush()
		raw[i] = buf.Bytes()
	})
	decodeS := secs("trace.decode", func(i int, _ trace.Trace) { trace.ReadBinary(bytes.NewReader(raw[i])) })
	validateS := secs("trace.validate", func(_ int, tr trace.Trace) { tr.Validate() })
	emptyS := secs("rr.dispatch", func(_ int, tr trace.Trace) { rr.NewDispatcher(empty.New()).Feed(tr) })
	var ftStats []rr.Stats
	ftS := secs("core.fasttrack", func(i int, tr trace.Trace) {
		d := core.New(tr.Threads(), 0)
		rr.NewDispatcher(d).Feed(tr)
		if len(ftStats) < len(trs) {
			ftStats = append(ftStats, d.Stats())
		}
	})
	djitS := secs("core.djit", func(_ int, tr trace.Trace) { rr.NewDispatcher(djit.New(tr.Threads(), 0)).Feed(tr) })
	monS := secs("monitor.ingest_batch", func(_ int, tr trace.Trace) {
		m := fasttrack.NewMonitor(fasttrack.WithTool(core.New(tr.Threads(), 0)))
		for i := 0; i < len(tr); i += frameEvents {
			m.IngestBatch(tr[i:min(i+frameEvents, len(tr))])
		}
		m.Close()
	})

	ns := func(s float64) float64 { return s * 1e9 / events }
	lt.encodeNs, lt.decodeNs, lt.validateNs = ns(encodeS), ns(decodeS), ns(validateS)
	lt.dispatchNs = ns(emptyS)
	lt.fasttrackNs, lt.djitNs = ns(ftS-emptyS), ns(djitS-emptyS)
	lt.monitorNs = ns(monS)
	var size float64
	for _, r := range raw {
		size += float64(len(r))
	}
	lt.bytesPerEvent = size / events
	lt.analysisS = decodeS + validateS + ftS
	var accesses, same float64
	for _, st := range ftStats {
		lt.vcOps += float64(st.VCOp)
		lt.shadowBytes += float64(st.ShadowBytes)
		accesses += float64(st.Reads + st.Writes)
		same += float64(st.ReadSameEpoch + st.WriteSameEpoch)
	}
	lt.sameEpochShare = same / accesses
	return lt
}

func (b *bench) setLayers(lt layerTimes) {
	b.set("trace.bytes_per_event", "B", lt.bytesPerEvent)
	b.set("trace.encode_ns_per_event", "ns", lt.encodeNs)
	b.set("trace.decode_ns_per_event", "ns", lt.decodeNs)
	b.set("trace.validate_ns_per_event", "ns", lt.validateNs)
	b.set("rr.dispatch_ns_per_event", "ns", lt.dispatchNs)
	b.set("core.fasttrack_ns_per_event", "ns", lt.fasttrackNs)
	b.set("core.djit_ns_per_event", "ns", lt.djitNs)
	b.set("core.vc_ops", "count", lt.vcOps)
	b.set("core.same_epoch_share", "ratio", lt.sameEpochShare)
	b.set("core.shadow_bytes", "B", lt.shadowBytes)
	b.set("monitor.ingest_batch_ns_per_event", "ns", lt.monitorNs)
}

// rtCalls builds and runs the rt per-call helper at one goroutine and at
// workers goroutines, with the shim writing its trace into dir.
func (b *bench) rtCalls(dir string) error {
	helper := filepath.Join(dir, "rtcall")
	if _, err := b.must(b.goCmd(filepath.Join(b.root, "perfbench"), "build", "-o", helper, "./rtcall")); err != nil {
		return err
	}
	env := append(b.env, "FASTTRACK_MODE=trace", "FASTTRACK_TRACE="+filepath.Join(dir, "rtcall.trace"))
	for _, g := range []int{1, workers} {
		var o outcome
		var err error
		b.tr.do(0, 0, "rt.calls", func() {
			o, err = b.must(command{dir: dir, env: env,
				args: []string{helper, "-calls", strconv.Itoa(int(rtHelperCall * b.size)), "-goroutines", strconv.Itoa(g)}})
		})
		if !b.attempt(err) {
			continue
		}
		var ns struct {
			Access float64 `json:"access_ns"`
			Sync   float64 `json:"sync_ns"`
		}
		if err := json.Unmarshal(o.stdout, &ns); err != nil {
			return fmt.Errorf("rtcall output %q: %w", o.stdout, err)
		}
		suffix := ""
		if g > 1 {
			suffix = ".par"
		}
		b.set("rt.access_call_ns"+suffix, "ns", ns.Access)
		b.set("rt.sync_call_ns"+suffix, "ns", ns.Sync)
	}
	return os.RemoveAll(filepath.Join(dir, "rtcall.trace"))
}

// programLayers lists the per-layer metrics that need a Go program to
// instrument, build and run, which daemon-stream does not have.
var programLayers = []struct{ name, unit string }{
	{"instrument.rewrite_s", "s"}, {"instrument.records", "count"}, {"instrument.skipped_share", "ratio"},
	{"build.go_build_s", "s"},
	{"rt.exec_s", "s"}, {"rt.events", "count"}, {"rt.sync_share", "ratio"}, {"rt.ns_per_event", "ns"},
	{"run.racedetect_s", "s"}, {"run.phases_s", "s"}, {"run.residual_share", "ratio"},
}
