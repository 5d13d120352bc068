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
