package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) []byte{
		"kernel":   func(seed int64) []byte { return kernelInput(seed, 1000).data },
		"pipeline": func(seed int64) []byte { return pipelineInput(seed, 1000).data },
		"rotation": func(seed int64) []byte {
			rot, err := rotation(seed, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, st := range rot {
				buf.WriteString(st.name + "\n" + st.tr.String())
			}
			return buf.Bytes()
		},
	}
	for name, gen := range gens {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
	}}
	if got, want := tr.selfTimes(), []int64{40, 30, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// testBench is a bench over this checkout with a private work directory.
func testBench(t *testing.T, seconds time.Duration, traced bool) *bench {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return newBench(root, t.TempDir(), 3, seconds, 0.05, traced)
}

func TestTargetsPassGoRunRace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the targets with the race detector")
	}
	b := testBench(t, time.Second, false)
	for _, name := range []string{"kernel", "pipeline"} {
		tg := b.target(name)
		in := filepath.Join(b.work, name+".in")
		if err := os.WriteFile(in, tg.in.data, 0o644); err != nil {
			t.Fatal(err)
		}
		env := append(b.env, "PERFBENCH_INPUT="+in, "PERFBENCH_OUTPUT="+filepath.Join(b.work, name+".out"))
		if _, err := b.goRun(tg, env, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, workload := range []string{"run-kernel", "run-pipeline", "daemon-stream"} {
		for _, traced := range []bool{false, true} {
			b := testBench(t, 200*time.Millisecond, traced)
			if err := b.run(workload); err != nil {
				t.Fatalf("%s traced=%v: %v", workload, traced, err)
			}
			res := b.finish()
			if !res.Correct {
				t.Errorf("%s traced=%v: failures %v", workload, traced, b.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", workload, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", workload, traced, name, m)
				}
			}
		}
	}
}
