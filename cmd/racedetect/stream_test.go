package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
			[]string{"strict validation: event 3 (rel 1 m7)"}},
		{"off", nil, 2,
			[]string{"infeasible trace: event 3 (rel 1 m7)"}},
		{"repair-remote", []string{"-server", addr, "-policy", "repair"}, 1,
			[]string{"FastTrack: 1 warning(s)", "write-write race on x6"}},
		{"strict-remote", []string{"-server", addr, "-policy", "strict"}, 2,
			[]string{"strict validation: event 3 (rel 1 m7)"}},
		{"off-remote", []string{"-server", addr}, 2,
			[]string{"infeasible trace: event 3 (rel 1 m7)"}},
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

// TestSameVerdictUnderEveryPolicy: -policy off and the validating
// policies check feasibility with one state machine, and the identifier
// caps in the dispatcher, locally and with -server, so a feasible trace
// is healthy under all four and an infeasible one stops off and strict
// with one message (under off, one that does not name strict). A
// re-entrant acquire (the dispatcher filters it), a join of a thread
// that never ran and a lock id of 2^60 are feasible; a release of
// another thread's lock is not, and neither is a write to a variable
// id or a fork of a thread id beyond its cap, which repair cannot mend
// and drops. Under off and strict, the first fault is the one
// reported: an id beyond a cap before an infeasible event or a decode
// error; an event that breaks both is reported as infeasible. A run
// that stops names its fault in its report, never as a bare "pipeline:
// healthy", and its -json report carries the fault as its error. Under
// off and strict the fault is the verdict followed directly by the
// stopping event, "infeasible trace: event N (" or "strict validation:
// event N (".
func TestSameVerdictUnderEveryPolicy(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	addr := startDaemon(t)
	feasible := map[string]int{"off": 0, "strict": 0, "repair": 0, "drop": 0}
	infeasible := map[string]int{"off": 2, "strict": 2, "repair": 0, "drop": 0}
	healthy := map[string]string{"off": "pipeline: healthy", "strict": "pipeline: healthy",
		"repair": "pipeline: healthy", "drop": "pipeline: healthy"}
	stops := func(stop, dropped string) map[string]string {
		return map[string]string{"off": stop, "strict": stop, "repair": dropped, "drop": dropped}
	}
	verdict := map[string]*regexp.Regexp{
		"off":    regexp.MustCompile(`^infeasible trace: event \d+ \(`),
		"strict": regexp.MustCompile(`^strict validation: event \d+ \(`),
	}
	const stop = "event 3 (rel 1 m1): thread 1 releases lock m1 it does not hold"
	const lock = "m1152921504606846976"
	for _, tr := range []struct {
		name, text string
		verdict    map[string]int    // exit code per policy
		want       map[string]string // a line the output (exit 2: its last line) must hold, per policy
	}{
		{"reentrant", "fork 0 1\nacq 1 m1\nacq 1 m1\nwr 1 x1\nrel 1 m1\nrel 1 m1\nwr 0 x2\n", feasible, healthy},
		{"idle-join", "fork 0 1\njoin 0 1\nwr 0 x1\n", feasible, healthy},
		{"foreign-release", "fork 0 1\nacq 0 m1\nwr 0 x1\nrel 1 m1\n", infeasible, stops(stop, "dropped=1")},
		{"huge-target", "wr 0 x1099511627776\n", infeasible,
			stops("event 0 (wr 0 x1099511627776): target id 1099511627776 outside [0, 16777216]", "dropped=1")},
		{"huge-tid", "fork 0 2147483647\nwr 2147483647 x1\n", infeasible,
			stops("event 0 (fork 0 2147483647): thread id 2147483647 outside [0, 4096]", "dropped=2")},
		{"unforked-huge-tid", "wr 5000 x1\n", infeasible,
			stops("event 0 (wr 5000 x1): thread 5000 is not running", "dropped=1")},
		{"capped-then-unheld", "wr 0 x1099511627776\nrel 0 m1\n", infeasible,
			map[string]string{"off": "event 0 (wr 0 x1099511627776)", "strict": "event 0 (wr 0 x1099511627776)",
				"repair": "repaired=1 dropped=1", "drop": "dropped=2"}},
		{"capped-then-garbage", "wr 0 x1099511627776\nwr 0 x1\nbogus 1 2\n",
			map[string]int{"off": 2, "strict": 2, "repair": 2, "drop": 2},
			stops("event 0 (wr 0 x1099511627776)", `line 3: unknown operation "bogus"`)},
		{"tagged-lock", "fork 0 1\nacq 1 " + lock + "\nwr 1 x1\nrel 1 " + lock + "\nacq 0 " + lock + "\nwr 0 x1\nrel 0 " + lock + "\n",
			feasible, healthy},
	} {
		path := filepath.Join(base, tr.name+".trace")
		if err := os.WriteFile(path, []byte(tr.text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"off", "strict", "repair", "drop"} {
			for _, remote := range []bool{false, true} {
				args := []string{"-stats", "-policy", policy}
				name := tr.name + "/" + policy
				if remote {
					args = append(args, "-server", addr)
					name += "-remote"
				}
				t.Run(name, func(t *testing.T) {
					code, out := racedetect(t, bin, append(args, path)...)
					if code != tr.verdict[policy] {
						t.Errorf("exit %d, want %d:\n%s", code, tr.verdict[policy], out)
					}
					got := out
					if tr.verdict[policy] == 2 {
						// The message that ends the run is its last line.
						lines := strings.Split(strings.TrimSpace(out), "\n")
						got = lines[len(lines)-1]
						fault := strings.TrimPrefix(got, "racedetect: ")
						report := strings.Join(lines[:len(lines)-1], "\n")
						if !strings.Contains(report, "pipeline: stopped: "+fault) || strings.Contains(report, "pipeline: healthy") {
							t.Errorf("report does not name the fault %q:\n%s", fault, out)
						}
						if re := verdict[policy]; re != nil && !re.MatchString(fault) {
							t.Errorf("fault %q does not match %s", fault, re)
						}
						jcode, doc := racedetectStdout(t, bin, "", append(append([]string{"-json"}, args...), path)...)
						var rep struct {
							Error string `json:"error"`
						}
						if err := json.Unmarshal([]byte(doc), &rep); err != nil || jcode != 2 || rep.Error != fault {
							t.Errorf("-json: exit %d, error %q (%v), want 2 and %q:\n%s", jcode, rep.Error, err, fault, doc)
						}
					}
					if !strings.Contains(got, tr.want[policy]) {
						t.Errorf("output lacks %q:\n%s", tr.want[policy], out)
					}
					if policy == "off" && strings.Contains(out, "strict") {
						t.Errorf("-policy off names strict:\n%s", out)
					}
				})
			}
		}
	}
}

// TestHostileIdsCapped: the identifier caps hold under every policy,
// the default included, so an absurd id ends the run with the cap
// message, or is dropped, instead of sizing a detector's dense tables.
// Each run has a 2 GB address-space limit, which a table sized by such
// an id would exceed.
func TestHostileIdsCapped(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	for _, tr := range []struct{ name, text string }{
		{"huge-target", "wr 0 x1099511627776\n"},
		{"huge-tid", "fork 0 2147483647\nwr 2147483647 x1\n"},
	} {
		path := filepath.Join(base, tr.name+".trace")
		if err := os.WriteFile(path, []byte(tr.text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			policy string
			code   int
			want   string
		}{
			{"", 2, "outside [0, "},
			{"off", 2, "outside [0, "},
			{"strict", 2, "outside [0, "},
			{"repair", 0, "dropped="},
			{"drop", 0, "dropped="},
		} {
			name := tr.name + "/default"
			args := []string{"-c", `ulimit -v 2000000 && exec "$0" "$@"`, bin, "-stats"}
			if run.policy != "" {
				name = tr.name + "/" + run.policy
				args = append(args, "-policy", run.policy)
			}
			t.Run(name, func(t *testing.T) {
				code, out := racedetect(t, "sh", append(args, path)...)
				if code != run.code || !strings.Contains(out, run.want) {
					t.Errorf("exit %d, want %d with %q:\n%s", code, run.code, run.want, out)
				}
			})
		}
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

// TestServerRefusesLocalFlags: -metrics.addr acts on the local analysis
// only, so with -server it is refused rather than silently dropped.
func TestServerRefusesLocalFlags(t *testing.T) {
	bin, base, _ := buildRacedetect(t)
	addr := startDaemon(t)
	path := writeSimTrace(t, base, "tsp", 0.1)
	for _, flag := range [][]string{{"-metrics.addr", "127.0.0.1:0"}} {
		code, out := racedetect(t, bin, append(append([]string{"-server", addr}, flag...), path)...)
		if code != 2 || !strings.Contains(out, flag[0]) {
			t.Errorf("-server %s: exit %d, want 2 with a message naming the flag:\n%s", flag[0], code, out)
		}
	}
}
