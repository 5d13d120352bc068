package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
)

// Schema versions every artifact `racebench -out` writes. Fields are
// only ever added within a schema version.
const Schema = "fasttrack/bench/v2"

// Header is the envelope every artifact starts with: the schema, the
// table that produced it, and the parallelism and best-of repetition
// count it was measured under. Each report embeds it, so its fields sit
// at the top level of the JSON object.
type Header struct {
	Schema string `json:"schema"`
	Table  string `json:"table"`
	CPUs   int    `json:"cpus"`
	Runs   int    `json:"runs"`
}

func newHeader(table string, cfg Config) Header {
	return Header{Schema: Schema, Table: table, CPUs: runtime.GOMAXPROCS(0), Runs: cfg.runs()}
}

// Report is one artifact. Check holds the table's gates: it returns nil
// when every condition holds, or one error listing each that failed.
type Report interface {
	Check() error
}

// WriteJSON writes an artifact as indented JSON.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// gates collects the failed conditions of one Check.
type gates []error

func (g *gates) need(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Errorf(format, args...))
	}
}

// header checks the envelope every table shares.
func (g *gates) header(h Header, table string) {
	g.need(h.Schema == Schema, "schema %q, want %q", h.Schema, Schema)
	g.need(h.Table == table, "table %q, want %q", h.Table, table)
	g.need(h.CPUs >= 1, "cpus %d, want >= 1", h.CPUs)
	g.need(h.Runs >= 1, "runs %d, want >= 1", h.Runs)
}

func (g gates) err() error { return errors.Join(g...) }
