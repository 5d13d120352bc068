package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// writeSimTrace writes the named sim workload at scale as a binary
// trace under base and returns its path.
func writeSimTrace(t *testing.T, base, name string, scale float64) string {
	t.Helper()
	b, ok := sim.ByName(name)
	if !ok {
		t.Fatalf("no %s workload", name)
	}
	path := filepath.Join(base, name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, b.Trace(scale)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// racedetectStdout runs the binary with args and stdin from the named
// file ("" for none) and returns its exit status and stdout alone.
func racedetectStdout(t *testing.T, bin, stdin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if stdin != "" {
		f, err := os.Open(stdin)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cmd.Stdin = f
	}
	out, err := cmd.Output()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("racedetect %v: %v\n%s", args, err, stderr.String())
	}
	return ee.ExitCode(), string(out)
}

// TestAllFansOutOnePass: -all analyzes the trace in one pass, fanning
// each event out to every detector, and reports exactly what one run
// per detector reports, in -all order, also when the trace comes from
// standard input. The JSON report names both accesses of each race.
func TestAllFansOutOnePass(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	path := writeSimTrace(t, base, "tsp", 0.3)

	code, all := racedetectStdout(t, bin, "", "-all", "-stats", path)
	if code != 1 {
		t.Fatalf("racedetect -all -stats: exit %d, want 1:\n%s", code, all)
	}
	var each strings.Builder
	for _, tool := range []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"} {
		_, out := racedetectStdout(t, bin, "", "-tool", tool, "-stats", path)
		each.WriteString(out)
	}
	if all != each.String() {
		t.Errorf("-all -stats output:\n%s\none run per tool:\n%s", all, each.String())
	}
	_, fromFile := racedetectStdout(t, bin, "", "-all", path)
	if _, fromStdin := racedetectStdout(t, bin, path, "-all", "-"); fromStdin != fromFile {
		t.Errorf("-all on standard input:\n%s\non the file:\n%s", fromStdin, fromFile)
	}

	hedc := writeSimTrace(t, base, "hedc", 0.3)
	report := filepath.Join(base, "hedc.json")
	if code, out := racedetect(t, bin, "-json.file", report, hedc); code != 1 {
		t.Fatalf("racedetect -json.file: exit %d, want 1:\n%s", code, out)
	}
	var races []struct {
		PrevIndex  int    `json:"prevIndex"`
		Access     string `json:"access"`
		PrevAccess string `json:"prevAccess"`
	}
	if err := json.Unmarshal(raceList(t, report), &races); err != nil {
		t.Fatal(err)
	}
	if len(races) == 0 {
		t.Fatal("hedc produced no races")
	}
	for _, r := range races {
		if r.PrevIndex < 0 || r.Access == "" || r.PrevAccess == "" {
			t.Errorf("race %+v lacks its prior access or access strings", r)
		}
	}
}

// TestPolicyRepairsDamagedTrace: a validating policy checks the stream
// itself, so a trace that fails the feasibility check is repaired under
// -policy repair, stops at the bad event under -policy strict, and is
// rejected outright under the default policy. With -server the daemon's
// pipeline repairs it the same way: the client leaves feasibility to
// the policy there too.
func TestPolicyRepairsDamagedTrace(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	addr := startDaemon(t)
	path := filepath.Join(base, "damaged.trace")
	// Event 3 releases a lock thread 1 never acquired (and thread 1 was
	// never forked); event 4 writes from the unforked thread 9.
	damaged := "acq 0 m1\nwr 0 x1\nrel 0 m1\nrel 1 m7\nwr 9 x6\nwr 0 x6\n"
	if err := os.WriteFile(path, []byte(damaged), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		exit int
		want []string
	}{
		{"repair", []string{"-policy", "repair", "-stats"}, 1,
			[]string{"repaired=2", "FastTrack: 1 warning(s)", "write-write race on x6"}},
		{"strict", []string{"-policy", "strict"}, 2,
			[]string{"strict validation", "event 3 (rel 1 m7)"}},
		{"off", nil, 2,
			[]string{"infeasible trace", "event 3 (rel 1 m7)"}},
		{"repair-remote", []string{"-server", addr, "-policy", "repair"}, 1,
			[]string{"FastTrack: 1 warning(s)", "write-write race on x6"}},
		{"strict-remote", []string{"-server", addr, "-policy", "strict"}, 2,
			[]string{"strict validation", "event 3 (rel 1 m7)"}},
		{"off-remote", []string{"-server", addr}, 2,
			[]string{"infeasible trace", "event 3 (rel 1 m7)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := racedetect(t, bin, append(tc.args, path)...)
			if code != tc.exit {
				t.Errorf("exit %d, want %d:\n%s", code, tc.exit, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestMembudgetSqueezes: the streaming analysis honours -membudget, so a
// tight budget squeezes FastTrack's shadow memory and -stats says so.
func TestMembudgetSqueezes(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	path := writeSimTrace(t, base, "tsp", 0.3)
	code, out := racedetectStdout(t, bin, "", "-membudget", "4096", "-stats", path)
	if code > 1 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	m := regexp.MustCompile(`membudget: squeezes=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no membudget line:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("membudget 4096 made no squeezes:\n%s", out)
	}
}

// TestLocalMatchesServer: a local run and a -server run of the same
// trace build their Monitors from one handshake with client.NewMonitor
// and print through one renderer, so their stdout and JSON race lists
// are byte-identical, -stats runs included. Under -policy
// repair both print the pipeline summary; the violation log lines below
// it are local only, since the wire carries no log.
func TestLocalMatchesServer(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	addr := startDaemon(t)
	tsp := writeSimTrace(t, base, "tsp", 0.3)
	damaged := filepath.Join(base, "damaged.trace")
	if err := os.WriteFile(damaged, []byte("acq 0 m1\nwr 0 x1\nrel 0 m1\nrel 1 m7\nwr 9 x6\nwr 0 x6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		trace string
		want  string // a line stdout must hold
	}{
		{"default", nil, tsp, "FastTrack: "},
		{"stats", []string{"-stats"}, tsp, "operation mix (FastTrack)"},
		{"coarse", []string{"-granularity", "coarse"}, tsp, "FastTrack: "},
		{"provenance", []string{"-provenance"}, tsp, "failed happens-before check"},
		{"djit", []string{"-tool", "DJIT+"}, tsp, "DJIT+: "},
		{"repair", []string{"-policy", "repair", "-stats"}, damaged, "pipeline: violations=2 repaired=2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			remoteArgs := append([]string{"-server", addr}, tc.args...)
			lcode, local := racedetectStdout(t, bin, "", append(tc.args, tc.trace)...)
			rcode, remote := racedetectStdout(t, bin, "", append(remoteArgs, tc.trace)...)
			if lcode != rcode || lcode > 1 {
				t.Fatalf("exit %d locally, %d with -server", lcode, rcode)
			}
			if !strings.Contains(local, tc.want) {
				t.Errorf("local stdout lacks %q:\n%s", tc.want, local)
			}
			var kept []string
			for _, line := range strings.SplitAfter(local, "\n") {
				if !strings.HasPrefix(line, "    event ") {
					kept = append(kept, line)
				}
			}
			if local = strings.Join(kept, ""); local != remote {
				t.Errorf("local stdout:\n%s\n-server stdout:\n%s", local, remote)
			}
			lj, rj := filepath.Join(base, tc.name+".local.json"), filepath.Join(base, tc.name+".remote.json")
			racedetectStdout(t, bin, "", append(tc.args, "-json.file", lj, tc.trace)...)
			racedetectStdout(t, bin, "", append(remoteArgs, "-json.file", rj, tc.trace)...)
			if l, r := raceList(t, lj), raceList(t, rj); !bytes.Equal(l, r) {
				t.Errorf("JSON race lists differ:\nlocal  %s\nremote %s", l, r)
			}
		})
	}
}

// TestServerRefusesLocalFlags: -membudget and -metrics.addr act on the
// local analysis only, so with -server they are refused rather than
// silently dropped.
func TestServerRefusesLocalFlags(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	addr := startDaemon(t)
	path := writeSimTrace(t, base, "tsp", 0.1)
	for _, flag := range [][]string{{"-membudget", "4096"}, {"-metrics.addr", "127.0.0.1:0"}} {
		code, out := racedetect(t, bin, append(append([]string{"-server", addr}, flag...), path)...)
		if code != 2 || !strings.Contains(out, flag[0]) {
			t.Errorf("-server %s: exit %d, want 2 with a message naming the flag:\n%s", flag[0], code, out)
		}
	}
}
