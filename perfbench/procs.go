package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running twserve process.
type server struct {
	cmd  *exec.Cmd
	URL  string
	done chan struct{}
}

// freeAddr reserves a loopback port by listening on port 0 and
// releasing it for the server to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// startServer execs twserve on a free loopback port with the extra
// flags; it does not wait for readiness.
func startServer(bin string, flags ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("reserve port: %w", err)
	}
	// With Stdout and Stderr left nil the server's log lines are
	// discarded: only the wire is measured.
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	// If this process dies without stopping the server (killed on a
	// timeout, say), the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start twserve: %w", err)
	}
	s := &server{cmd: cmd, URL: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		close(s.done)
	}()
	return s, nil
}

// waitReady polls GET /v1/healthz until it answers 200, the process
// exits, or the timeout passes.
func (s *server) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// A fixed, short poll interval: a growing back-off would round the
	// measured set-up time up to its next step.
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		r, err := http.NewRequestWithContext(ctx, "GET", s.URL+"/v1/healthz", nil)
		if err == nil {
			var resp *http.Response
			if resp, err = hc.Do(r); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					cancel()
					return nil
				}
				err = fmt.Errorf("healthz status %d", resp.StatusCode)
			}
		}
		cancel()
		select {
		case <-s.done:
			return fmt.Errorf("twserve %s exited before it was ready", s.URL)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("twserve %s not ready after %v: %w", s.URL, timeout, err)
		}
	}
}

// stop terminates the server and waits for it to exit: SIGTERM for a
// graceful drain, SIGKILL if that takes over ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time the process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields after its
	// closing parenthesis start with field 3 (state).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procHWM returns the process's peak resident set size (VmHWM) in
// bytes.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostTicks returns the host-wide steal and total CPU ticks from the
// first line of /proc/stat. Steal is time the hypervisor gave this
// machine's virtual CPUs to someone else.
func hostTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
