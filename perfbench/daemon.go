package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one eshd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan struct{}
	log  *os.File
}

// live tracks every started daemon so an interrupted run can still stop
// them all before it exits.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon launches eshd with args plus a free loopback -addr and
// returns once /readyz answers 200, together with the time that took.
func startDaemon(bin, logPath string, args ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(bin, "eshd"), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start eshd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is read through done and the log
		close(d.done)
	}()
	ready, err := d.waitReady(start, 120*time.Second)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, ready, nil
}

// waitReady polls /readyz until it answers 200 and returns the time since
// start.
func (d *daemon) waitReady(start time.Time, limit time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return 0, fmt.Errorf("eshd exited before it was ready (log: %s)", d.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("eshd not ready after %s", limit)
		}
	}
}

// stop sends SIGTERM and waits for the drain; kill sends SIGKILL. Both
// return once the process has exited.
func (d *daemon) stop() { d.signal(syscall.SIGTERM, 30*time.Second) }
func (d *daemon) kill() { d.signal(syscall.SIGKILL, 0) }

func (d *daemon) signal(sig syscall.Signal, grace time.Duration) {
	_ = d.cmd.Process.Signal(sig) // fails only when the process is already gone
	if grace > 0 {
		select {
		case <-d.done:
		case <-time.After(grace):
			_ = d.cmd.Process.Kill()
		}
	}
	<-d.done
	d.log.Close()
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// killAll stops every daemon still running.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// rssPeakMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// buildIndex runs eshcorpus -save and returns its wall time and the
// engine-side build time it reports.
func buildIndex(bin, snapshot string) (wall, build time.Duration, err error) {
	start := time.Now()
	out, err := exec.Command(filepath.Join(bin, "eshcorpus"), "-save", snapshot).CombinedOutput()
	wall = time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("eshcorpus -save: %w: %s", err, out)
	}
	// "indexed N procedures (M unique strands) in 1.72s; snapshot saved to ..."
	build = wall
	if _, rest, ok := strings.Cut(string(out), ") in "); ok {
		if tok, _, ok := strings.Cut(rest, ";"); ok {
			if d, err := time.ParseDuration(tok); err == nil {
				build = d
			}
		}
	}
	return wall, build, nil
}
