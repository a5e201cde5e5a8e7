package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one hdltsd child process on a loopback port, with its own
// durable job and workflow directories so the WAL paths run.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	exited  chan struct{}
	log     *os.File
	stopped bool
}

// startDaemon execs hdltsd with its default flags plus a loopback address
// and fresh store directories under dir, and returns once /readyz answers
// 200, with the time that took.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	for _, sub := range []string{"jobs", "workflows"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, 0, err
		}
	}
	logf, err := os.Create(filepath.Join(dir, "hdltsd.log"))
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr,
		"-jobs-dir", filepath.Join(dir, "jobs"),
		"-workflows-dir", filepath.Join(dir, "workflows"))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Its own process group lets stop reap step commands the daemon may
	// leave behind; the death signal covers a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start hdltsd: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is read via exited and ProcessState
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("hdltsd exited during start-up (%v); log in %s", cmd.ProcessState, logf.Name())
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("hdltsd not ready after 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, kills
// anything left in its process group, and waits for the exit. Later calls
// do nothing.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	pid := d.cmd.Process.Pid
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-d.exited
	}
	_ = syscall.Kill(-pid, syscall.SIGKILL) // ESRCH when the group is already empty
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS reads a process's VmHWM from /proc/<pid>/status, in MB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat: all
// ticks, and the ticks the hypervisor stole from this guest.
func cpuTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return total, steal, nil
}
