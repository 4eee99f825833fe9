package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the unit of the utime/stime fields in /proc/<pid>/stat
// (USER_HZ, 100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time (user+system, all threads) process pid
// has used, from /proc/<pid>/stat. /proc/<pid>/schedstat would give
// nanoseconds but covers only the main thread.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// parseProcStat returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may itself hold spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ')' come field 3 (state) onward; utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 here.
	f := bytes.Fields(b[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// cpuMeter sums the CPU time of this process and any child daemons.
type cpuMeter struct {
	pids []int
}

// cpuWindow measures CPU-seconds per wall-second between start and
// stop, for this process alone and for everything the meter covers.
type cpuWindow struct {
	m       *cpuMeter
	wall0   time.Time
	self0   time.Duration
	perPid0 []time.Duration
}

func (m *cpuMeter) start() (*cpuWindow, error) {
	w := &cpuWindow{m: m, wall0: time.Now(), self0: selfCPU()}
	for _, pid := range m.pids {
		d, err := procCPU(pid)
		if err != nil {
			return nil, fmt.Errorf("cpu of pid %d: %w", pid, err)
		}
		w.perPid0 = append(w.perPid0, d)
	}
	return w, nil
}

// cpuSpan is the result of one window.
type cpuSpan struct {
	wall   time.Duration
	self   time.Duration   // this process
	perPid []time.Duration // each child, in meter order
}

func (s cpuSpan) total() time.Duration {
	t := s.self
	for _, d := range s.perPid {
		t += d
	}
	return t
}

// cores returns CPU-seconds per wall-second of d over the window.
func (s cpuSpan) cores(d time.Duration) float64 {
	if s.wall <= 0 {
		return 0
	}
	return d.Seconds() / s.wall.Seconds()
}

func (w *cpuWindow) stop() (cpuSpan, error) {
	s := cpuSpan{self: selfCPU() - w.self0}
	for i, pid := range w.m.pids {
		d, err := procCPU(pid)
		if err != nil {
			return cpuSpan{}, fmt.Errorf("cpu of pid %d: %w", pid, err)
		}
		s.perPid = append(s.perPid, d-w.perPid0[i])
	}
	s.wall = time.Since(w.wall0)
	return s, nil
}
