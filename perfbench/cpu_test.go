package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime and stime are
	// fields 14 and 15 (here 250 and 150 ticks).
	line := "4242 (flip cd) (x)) S 1 4242 4242 0 -1 4194560 120 0 0 0 250 150 0 0 20 0 7 0 1234 5678 90 18446744073709551615\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 400 * clockTick; got != want {
		t.Errorf("cpu %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 flipcd S 1", "4242 (flipcd) S 1 2 3", "4242 (flipcd) S 1 4242 4242 0 -1 0 0 0 0 0 x 150 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestProcCPUReadsALiveProcess(t *testing.T) {
	before, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	self0 := selfCPU()
	deadline := time.Now().Add(150 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Errorf("cpu went backwards: %v then %v", before, after)
	}
	if d := selfCPU() - self0; d < 50*time.Millisecond {
		t.Errorf("getrusage saw %v of a 150ms busy loop", d)
	}
	if after-before < 50*time.Millisecond {
		t.Errorf("/proc stat saw %v of a 150ms busy loop", after-before)
	}
	if _, err := procCPU(1 << 30); err == nil {
		t.Error("read the CPU of a process that cannot exist")
	}
}
