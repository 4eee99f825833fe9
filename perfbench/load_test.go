package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The load must come from no more goroutines and TCP connections than
// the machine has processors: a harness that runs dozens of drain
// goroutines, or spins, measures its own scheduling instead of the
// system's. Each workload runs briefly while a sampler counts the
// goroutines the benchmark's own code started (plus the one driving
// the load) and the established TCP connections this process holds.
func TestLoadStaysWithinNproc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	nproc := runtime.NumCPU()
	flipcd := filepath.Join(t.TempDir(), "flipcd")
	if out, err := exec.Command("go", "build", "-o", flipcd, "flipc/cmd/flipcd").CombinedOutput(); err != nil {
		t.Fatalf("building flipcd: %v\n%s", err, out)
	}
	for _, wl := range []string{"echo_daemon", "fanout_mixed", "gateway_loop"} {
		t.Run(wl, func(t *testing.T) {
			stop, done := make(chan struct{}), make(chan struct{})
			maxG, maxC := 0, 0
			go func() {
				defer close(done)
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					maxG = max(maxG, 1+harnessGoroutines())
					c, err := tcpConnections()
					if err != nil {
						t.Error(err)
						return
					}
					maxC = max(maxC, c)
				}
			}()
			cfg := &runConfig{workload: wl, seed: 1, seconds: 2, flipcd: flipcd, outDir: t.TempDir()}
			_, err := workloads[wl](cfg, phase{passes: 2, traffic: 2 * time.Second})
			close(stop)
			<-done
			if err != nil {
				t.Fatal(err)
			}
			if kerr := killChildren(); kerr != nil {
				t.Error(kerr)
			}
			if maxG > nproc || maxC > nproc {
				t.Errorf("load used up to %d goroutines and %d connections; nproc is %d", maxG, maxC, nproc)
			}
			if maxC == 0 {
				t.Error("saw no connection: the connection count is broken")
			}
			t.Logf("%s: up to %d goroutines, %d connections (nproc %d)", wl, maxG, maxC, nproc)
		})
	}
}

// harnessGoroutines counts live goroutines created by this package's
// non-test code.
func harnessGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		i := bytes.Index(g, []byte("\ncreated by "))
		if i < 0 {
			continue
		}
		creator := string(g[i+len("\ncreated by "):])
		if (strings.HasPrefix(creator, "flipc/perfbench.") || strings.HasPrefix(creator, "main.")) &&
			!strings.Contains(strings.SplitN(creator, " ", 2)[0], ".Test") {
			n++
		}
	}
	return n
}

// tcpConnections counts established TCP connections with at least one
// end in this process; a loopback connection with both ends here
// counts once.
func tcpConnections() (int, error) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, err
	}
	inodes := map[string]bool{}
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	pairs := map[string]bool{}
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(table)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fs := strings.Fields(sc.Text())
			// sl local_address rem_address st ... inode (field 9)
			if len(fs) < 10 || fs[3] != "01" || !inodes[fs[9]] {
				continue
			}
			a, b := fs[1], fs[2]
			if a > b {
				a, b = b, a
			}
			pairs[fmt.Sprintf("%s-%s", a, b)] = true
		}
		f.Close()
	}
	return len(pairs), nil
}

// A traced run reports the layer metrics of every layer its workload
// exercises (short runs leave the p99s without enough samples, so only
// medians, counts and ratios are checked here).
func TestTracedRunReportsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	flipcd := filepath.Join(t.TempDir(), "flipcd")
	if out, err := exec.Command("go", "build", "-o", flipcd, "flipc/cmd/flipcd").CombinedOutput(); err != nil {
		t.Fatalf("building flipcd: %v\n%s", err, out)
	}
	want := map[string][]string{
		"echo_daemon": {"core.send_ns.p50", "core.recv_wait_ns.p50", "core.alloc_free_ns.p50", "engine.polls_per_msg",
			"go.allocs_per_msg", "nettrans.trysend_ns.p50", "nettrans.poll_hit_ratio", "wire.oneway_ns.p50",
			"wire.daemon_oneway_ns.p50", "wire.daemon_turnaround_ns", "proc.daemon_busy_cores", "self.core_ns_per_msg"},
		"fanout_mixed": {"topic.publish_ns.p50", "topic.fanout_drop_ratio", "topic.recv_wait_ns.p50", "core.alloc_free_ns.p50",
			"nettrans.frames_per_flush", "nettrans.flush_ns.p50", "nettrans.ctl_bypass", "wire.oneway_ns.p50",
			"harness.gen_late_p50_us", "self.topic_ns_per_msg"},
		"gateway_loop": {"gateway.client_publish_ns.p50", "gateway.deliver_wait_ns.p50", "gateway.matched",
			"fabric.poll_hit_ratio", "engine.polls_per_msg", "self.gateway_ns_per_msg"},
	}
	for wl, names := range want {
		cfg := &runConfig{workload: wl, seed: 1, seconds: 4, flipcd: flipcd, outDir: t.TempDir()}
		rep, err := tracedRun(cfg, workloads[wl], 4*time.Second)
		if kerr := killChildren(); kerr != nil {
			t.Error(kerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, n := range append(names, "harness.trace_overhead", "harness.loss_ratio") {
			if m, ok := rep.metrics[n]; !ok || m.refused || m.na {
				t.Errorf("%s: traced run did not report %s (violations: %v)", wl, n, rep.problems)
			}
		}
	}
}
