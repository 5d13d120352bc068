package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the layers themselves are not modified).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // the operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start"` // nanoseconds since the tracer started
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid tracer that records nothing, so untraced runs pay nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns the function
// that closes it and the new span's id.
func (t *tracer) begin(op, parent int, name string) (end func(), id int) {
	if t == nil {
		return func() {}, 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}, id
}

// do runs f inside a span and returns the span's id.
func (t *tracer) do(op, parent int, name string, f func()) int {
	end, id := t.begin(op, parent, name)
	f()
	end()
	return id
}

// selfTimes returns each span's duration minus the union of the
// intervals its children cover, indexed by span id - 1.
func (t *tracer) selfTimes() []int64 {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, lo, hi int64
		open := false
		for _, c := range iv {
			if open && c[0] <= hi {
				hi = max(hi, c[1])
				continue
			}
			if open {
				covered += hi - lo
			}
			lo, hi, open = c[0], c[1], true
		}
		if open {
			covered += hi - lo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfSeconds returns the self times, in seconds, of every span named
// name.
func (t *tracer) selfSeconds(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e9)
		}
	}
	return out
}

// write saves the spans and their self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	type row struct {
		span
		Self int64 `json:"self"`
	}
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
