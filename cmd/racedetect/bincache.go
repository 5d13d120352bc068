package main

import (
	"bytes"
	"crypto/sha256"
	"debug/elf"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"fasttrack/instrument"
)

// The binary cache keeps the executables racedetect run builds under
// os.UserCacheDir()/fasttrack/racedetect-run/<key>/, so a repeated run
// of unchanged source skips the rewrite, go list and the link, as go run
// does with its own executable cache. An entry holds the executable
// (binName) and the rewriter's statistics (statsName); the key hashes
// everything the executable depends on, so a change to any of it is a
// miss. A stale hit would run an old program and report its races, so
// when in doubt the key is stricter than it needs to be.
const (
	// cacheFormat is hashed into every key; change it when an entry's
	// layout or meaning changes.
	cacheFormat = "racedetect-run/v1"
	// cacheEntries bounds the cache: a write that leaves more entries
	// deletes the least recently used ones.
	cacheEntries = 32
	binName      = "ft.bin"
	statsName    = "stats.json"
)

// binCache is the cache entry of one racedetect run.
type binCache struct {
	dir string // the cache directory
	key string
	// The inputs the key was computed from, to recompute it after a
	// build (see commit).
	buildID, pkgDir, root string
	goVars                map[string]string
}

// openBinCache returns the cache entry for the instrumented build of
// pkgDir against the fasttrack module at root, or nil when the build
// cannot be cached: no usable cache directory, no build ID in this
// executable, a development toolchain, or unreadable inputs. goVars is
// the build environment's go env.
func openBinCache(pkgDir, root string, goVars map[string]string) *binCache {
	if strings.Contains(runtime.Version(), "devel") || strings.Contains(goVars["GOVERSION"], "devel") {
		return nil
	}
	id := selfBuildID()
	if id == "" {
		return nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return nil
	}
	c := &binCache{dir: filepath.Join(base, "fasttrack", "racedetect-run"), buildID: id, pkgDir: pkgDir, root: root, goVars: goVars}
	if c.key, err = c.computeKey(); err != nil {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil
	}
	return c
}

func (c *binCache) computeKey() (string, error) {
	files, err := instrument.Inputs(c.pkgDir, instrument.Options{ModuleDir: c.root})
	if err != nil {
		return "", err
	}
	return cacheKey(c.buildID, c.goVars, instrument.BuildFlags(), files), nil
}

// cacheKey hashes the inputs of an instrumented build: the cache
// format, racedetect's build ID (the rewriter), the go env of the build
// (the toolchain, its target and settings), the build flags, and the
// files instrument.Inputs lists. Every field is length-prefixed and
// every list counted, so distinct inputs never hash the same bytes.
// GOGCCFLAGS names a new temporary directory on every go env call, and
// GOMOD depends only on the working directory, whose module is not
// built; both are left out.
func cacheKey(buildID string, goVars map[string]string, flags []string, files []instrument.Input) string {
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.AppendUvarint(nil, uint64(len(b))))
		h.Write(b)
	}
	count := func(n int) { h.Write(binary.AppendUvarint(nil, uint64(n))) }
	field([]byte(cacheFormat))
	field([]byte(buildID))
	var names []string
	for name := range goVars {
		if name != "GOGCCFLAGS" && name != "GOMOD" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	count(len(names))
	for _, name := range names {
		field([]byte(name))
		field([]byte(goVars[name]))
	}
	count(len(flags))
	for _, f := range flags {
		field([]byte(f))
	}
	count(len(files))
	for _, f := range files {
		field([]byte(f.Name))
		field(f.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// entry returns the path of the key's entry directory.
func (c *binCache) entry() string { return filepath.Join(c.dir, c.key) }

// lookup returns the cached executable and its rewriter statistics,
// marking the entry as recently used. An unreadable entry is removed,
// so the build that follows can replace it.
func (c *binCache) lookup() (string, instrument.Stats, bool) {
	var st instrument.Stats
	bin := filepath.Join(c.entry(), binName)
	data, err := os.ReadFile(filepath.Join(c.entry(), statsName))
	if os.IsNotExist(err) {
		return "", st, false
	}
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	if err == nil {
		_, err = os.Stat(bin)
	}
	if err != nil {
		os.RemoveAll(c.entry())
		return "", st, false
	}
	// Best effort: an entry whose time is not updated is only evicted
	// sooner.
	now := time.Now()
	os.Chtimes(c.entry(), now, now)
	return bin, st, true
}

// commit stores the executable built in tmp, a directory from
// os.MkdirTemp in the cache directory, with its statistics, and returns
// the executable to run and a function that cleans up after the run.
// When the entry cannot be stored, the target runs from tmp and the
// cleanup removes it.
func (c *binCache) commit(tmp string, st instrument.Stats) (string, func()) {
	own := filepath.Join(tmp, binName)
	uncached := func() { os.RemoveAll(tmp) }
	data, err := json.Marshal(st)
	if err == nil {
		err = os.WriteFile(filepath.Join(tmp, statsName), data, 0o644)
	}
	// A source file edited while the build ran may or may not be in the
	// executable, so it must not be stored under either version's key.
	if key, kerr := c.computeKey(); err != nil || kerr != nil || key != c.key {
		return own, uncached
	}
	if err := os.Rename(tmp, c.entry()); err != nil {
		// A concurrent run stored the same key first: use its entry.
		if bin, _, ok := c.lookup(); ok {
			os.RemoveAll(tmp)
			return bin, func() {}
		}
		return own, uncached
	}
	c.evict()
	return filepath.Join(c.entry(), binName), func() {}
}

// evict deletes the least recently used entries (and leftover
// temporary directories, which count as entries) beyond cacheEntries.
func (c *binCache) evict() {
	ents, err := os.ReadDir(c.dir)
	if err != nil || len(ents) <= cacheEntries {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var all []aged
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			all = append(all, aged{e.Name(), info.ModTime()})
		}
	}
	slices.SortFunc(all, func(a, b aged) int { return a.mod.Compare(b.mod) })
	for _, a := range all[:max(0, len(all)-cacheEntries)] {
		if a.name != c.key {
			os.RemoveAll(filepath.Join(c.dir, a.name))
		}
	}
}

// goEnv runs go env -json once in the build environment env.
func goEnv(env []string) (map[string]string, error) {
	cmd := exec.Command("go", "env", "-json")
	cmd.Env = env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go env: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var vars map[string]string
	if err := json.Unmarshal(out, &vars); err != nil {
		return nil, fmt.Errorf("go env: %w", err)
	}
	return vars, nil
}

// buildIDMarker starts the build ID the linker writes near the start
// of the text of a non-ELF Go executable.
var buildIDMarker = []byte("\xff Go build ID: \"")

// selfBuildID returns this executable's Go build ID, which changes
// whenever its code (the rewriter included) does, or "" when it has
// none. The ID is read rather than the file hashed: hashing the
// executable costs about as much as a whole cached run.
func selfBuildID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	return buildID(exe)
}

// buildID returns the Go build ID of the executable at exe, or "".
func buildID(exe string) string {
	if f, err := elf.Open(exe); err == nil {
		defer f.Close()
		return elfBuildID(f)
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	head := make([]byte, 32<<10)
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	i := bytes.Index(head, buildIDMarker)
	if i < 0 {
		return ""
	}
	id, _, ok := bytes.Cut(head[i+len(buildIDMarker):], []byte("\""))
	if !ok {
		return ""
	}
	return string(id)
}

// elfBuildID reads the Go build ID note: name "Go" and type 4 in the
// .note.go.buildid section.
func elfBuildID(f *elf.File) string {
	s := f.Section(".note.go.buildid")
	if s == nil {
		return ""
	}
	data, err := s.Data()
	if err != nil || len(data) < 16 {
		return ""
	}
	bo := f.ByteOrder
	namesz, descsz, typ := bo.Uint32(data), bo.Uint32(data[4:]), bo.Uint32(data[8:])
	desc := 12 + (uint64(namesz)+3)&^3
	if namesz != 4 || typ != 4 || string(data[12:15]) != "Go\x00" || desc+uint64(descsz) > uint64(len(data)) {
		return ""
	}
	return string(data[desc : desc+uint64(descsz)])
}
