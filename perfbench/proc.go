package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// command describes one child process the benchmark runs.
type command struct {
	dir  string
	env  []string
	args []string
	// rssOf names the processes, the child or its direct children,
	// whose peak RSS the run reports; nil skips the sampling.
	rssOf map[string]bool
}

// outcome is what a finished child left behind.
type outcome struct {
	wall     time.Duration
	exit     int
	stdout   []byte
	stderr   []byte
	peakRSSK int64 // largest VmHWM among the rssOf processes, in KiB
}

// run executes c in its own process group, so a timeout kills the whole
// tree (racedetect run starts the toolchain, the target and the
// analyzer), and waits for it. A non-zero exit is not an error; failing
// to start or running past the deadline is.
func (c command) run(ctx context.Context) (outcome, error) {
	cmd := exec.Command(c.args[0], c.args[1:]...)
	cmd.Dir = c.dir
	cmd.Env = c.env
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return outcome{}, fmt.Errorf("%s: %w", c.args[0], err)
	}
	done := make(chan struct{})
	peak := make(chan int64, 1)
	go func() { peak <- sampleRSS(cmd.Process.Pid, c.rssOf, done) }()
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	var err error
	select {
	case err = <-waitErr:
	case <-ctx.Done():
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-waitErr
		close(done)
		<-peak
		return outcome{}, fmt.Errorf("%s: %w", strings.Join(c.args, " "), ctx.Err())
	}
	wall := time.Since(start)
	close(done)
	o := outcome{wall: wall, stdout: stdout.Bytes(), stderr: stderr.Bytes(), peakRSSK: <-peak}
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			return o, err
		}
		o.exit = ee.ExitCode()
	}
	return o, nil
}

// rssInterval is how often processes are sampled. VmHWM is a
// high-water mark, so a sample only has to land once late in a
// process's life; every process of interest lives for hundreds of
// milliseconds.
const rssInterval = 20 * time.Millisecond

// sampleRSS polls root and its direct children until done closes and
// returns the largest VmHWM, in KiB, among processes named in names.
// racedetect run starts the build, the target and the analyzer itself,
// so one level holds every process of interest; walking no deeper keeps
// the sampler's own CPU use out of the measurement.
func sampleRSS(root int, names map[string]bool, done <-chan struct{}) int64 {
	if names == nil {
		return 0
	}
	var peak int64
	tick := time.NewTicker(rssInterval)
	defer tick.Stop()
	for {
		for _, pid := range append(children(root), root) {
			if name, hwm, _ := procStatus(pid); names[name] {
				peak = max(peak, hwm)
			}
		}
		select {
		case <-done:
			return peak
		case <-tick.C:
		}
	}
}

// children lists pid's child processes from /proc/<pid>/task/*/children.
func children(pid int) []int {
	var out []int
	tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	for _, t := range tasks {
		data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/children", pid, t.Name()))
		for _, f := range strings.Fields(string(data)) {
			if child, err := strconv.Atoi(f); err == nil {
				out = append(out, child)
			}
		}
	}
	return out
}

// procStatus returns a process's name, VmHWM and VmRSS (KiB) from
// /proc/<pid>/status; a process that has exited reads as ("", 0, 0).
func procStatus(pid int) (name string, hwm, rss int64) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch k {
		case "Name":
			name = strings.TrimSpace(v)
		case "VmHWM":
			hwm = kB(v)
		case "VmRSS":
			rss = kB(v)
		}
	}
	return name, hwm, rss
}

func kB(v string) int64 {
	n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
	return n
}
