package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"flipc/internal/wire"
)

// daemon is one flipcd child process. Every daemon started is also
// recorded in children, so a failing run can kill them all before it
// exits; Pdeathsig covers the benchmark itself being killed.
type daemon struct {
	cmd      *exec.Cmd
	out      *bufio.Reader
	stdout   io.ReadCloser
	addr     string    // transport listen address
	echo     wire.Addr // echo endpoint address
	httpAddr string    // obs surface address, "" without -http
	waited   bool
}

var children []*daemon

// startDaemon spawns bin as node 1 on an ephemeral loopback port and
// waits for it to print its addresses. With http set it also serves
// the observability surface on an ephemeral port.
func startDaemon(bin string, http bool) (*daemon, error) {
	args := []string{"-node", "1", "-listen", "127.0.0.1:0"}
	if http {
		args = append(args, "-http", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stdout: stdout, out: bufio.NewReader(stdout)}
	children = append(children, d)

	// A daemon that never prints its addresses is killed, which ends
	// the read below with EOF.
	hang := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
	defer hang.Stop()
	for d.addr == "" || d.echo == 0 || (http && d.httpAddr == "") {
		line, err := d.out.ReadString('\n')
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("flipcd exited before reporting its addresses: %w", err)
		}
		parseDaemonLine(d, line)
	}
	return d, nil
}

// parseDaemonLine picks the listen, echo and metrics addresses out of
// flipcd's start-up banner.
func parseDaemonLine(d *daemon, line string) {
	line = strings.TrimSpace(line)
	switch {
	case strings.Contains(line, " listening on "):
		f := strings.Fields(line[strings.Index(line, " listening on ")+len(" listening on "):])
		if len(f) > 0 {
			d.addr = f[0]
		}
	case strings.HasPrefix(line, "flipcd: echo endpoint address "):
		f := strings.Fields(strings.TrimPrefix(line, "flipcd: echo endpoint address "))
		if len(f) > 0 {
			if v, err := strconv.ParseUint(strings.TrimPrefix(f[0], "0x"), 16, 32); err == nil {
				d.echo = wire.Addr(v)
			}
		}
	case strings.HasPrefix(line, "flipcd: metrics on http://"):
		rest := strings.TrimPrefix(line, "flipcd: metrics on http://")
		if i := strings.Index(rest, "/"); i > 0 {
			d.httpAddr = rest[:i]
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down (SIGTERM, so it prints its echo
// count) and reaps it. It returns the echo count the daemon reported.
// A daemon that does not exit within two seconds is killed and stop
// reports an error.
func (d *daemon) stop() (echoed uint64, err error) {
	if d.waited {
		return 0, errors.New("flipcd already stopped")
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal flipcd: %w", err)
	}
	var timedOut atomic.Bool
	hang := time.AfterFunc(2*time.Second, func() {
		timedOut.Store(true)
		_ = d.cmd.Process.Kill()
	})
	got := false
	for {
		line, rerr := d.out.ReadString('\n')
		if n, ok := parseEchoed(line); ok {
			echoed, got = n, true
		}
		if rerr != nil {
			break
		}
	}
	werr := d.cmd.Wait()
	hang.Stop()
	d.waited = true
	if timedOut.Load() {
		return 0, errors.New("flipcd ignored SIGTERM and was killed")
	}
	if werr != nil {
		return 0, fmt.Errorf("flipcd exit: %w", werr)
	}
	if !got {
		return 0, errors.New("flipcd did not report its echo count")
	}
	if err := checkGone(d.pid()); err != nil {
		return 0, err
	}
	return echoed, nil
}

// parseEchoed reads "flipcd: N messages echoed; drops=D".
func parseEchoed(line string) (uint64, bool) {
	const marker = " messages echoed;"
	i := strings.Index(line, marker)
	if i < 0 || !strings.HasPrefix(line, "flipcd: ") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSpace(line[len("flipcd: "):i]), 10, 64)
	return n, err == nil
}

// kill ends the daemon without ceremony and reaps it.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	_ = d.cmd.Process.Kill()
	_, _ = io.Copy(io.Discard, d.stdout)
	_ = d.cmd.Wait()
	d.waited = true
}

// checkGone fails if pid still names a live process after it was
// reaped (a child that outlived the benchmark's hold on it).
func checkGone(pid int) error {
	if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
		return nil
	}
	return fmt.Errorf("flipcd pid %d still exists after it was reaped", pid)
}

// killChildren kills and reaps every daemon still running and reports
// whether any had to be killed or outlived its reaping.
func killChildren() error {
	var errs []error
	for _, d := range children {
		if d.waited {
			continue
		}
		d.kill()
		if err := checkGone(d.pid()); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
