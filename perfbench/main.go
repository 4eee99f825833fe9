// Command perfbench is the repository benchmark: three workloads over
// the real FLIPC stack on the host's loopback interface, each printing
// its end-to-end metrics (or, with -trace 1, its per-layer metrics)
// and ending with one JSON result line.
//
//	echo_daemon   closed loop, one exchange in flight, against a flipcd
//	              child over one TCP connection: the wake path and idle
//	              spinning of two engines in two processes decide it.
//	fanout_mixed  open loop in one process: a Bulk topic with 8
//	              subscribers beside a paced 1-subscriber Control topic,
//	              over one TCP connection. Saturated passes offer Bulk
//	              more than it can carry, so per-frame cost decides
//	              goodput; light passes give Control latency beside it.
//	gateway_loop  closed loop through an in-process gateway.Server on a
//	              Fabric domain with two TCP clients, one publishing to
//	              an exact topic and one receiving through bench.*.
//
// Run it from the repository root through run.sh, which builds this
// program and the flipcd daemon from the tree under test:
//
//	bash perfbench/run.sh --workload echo_daemon --seed 1 --seconds 30 --trace 0
//
// The seed fixes every generated input (payload sizes and bytes, the
// control jitter). Load comes from at most runtime.NumCPU() harness
// goroutines and as many TCP connections, and the harness waits only
// in the system's blocking receive calls. Every figure is loopback,
// not a real link.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit; the lists below are what
// BENCHMARK.json declares (main_test.go checks they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"idle_cpu_cores", "cores"},
	{"cpu_us_per_msg", "us"},
	{"msgs_per_s", "1/s"},
	{"latency_p50_us", "us"},
}

var perLayer = []metricDef{
	{"core.send_ns.p50", "ns"},
	{"core.recv_wait_ns.p50", "ns"},
	{"core.recv_wait_ns.p99", "ns"},
	{"core.alloc_free_ns.p50", "ns"},
	{"engine.polls_per_msg", "polls/msg"},
	{"engine.doorbells_per_msg", "doorbells/msg"},
	{"engine.recv_drops", "count"},
	{"engine.wire_busy", "count"},
	{"engine.peer_down", "count"},
	{"go.allocs_per_msg", "allocs/msg"},
	{"go.bytes_per_msg", "B/msg"},
	{"nettrans.trysend_ns.p50", "ns"},
	{"nettrans.trysend_ns.p99", "ns"},
	{"nettrans.trysend_refused_ratio", "ratio"},
	{"nettrans.poll_hit_ratio", "ratio"},
	{"nettrans.frames_per_flush", "frames"},
	{"nettrans.flush_ns.p50", "ns"},
	{"nettrans.rx_drops", "count"},
	{"nettrans.flush_lost", "count"},
	{"nettrans.ctl_bypass", "count"},
	{"wire.oneway_ns.p50", "ns"},
	{"wire.daemon_oneway_ns.p50", "ns"},
	{"wire.daemon_turnaround_ns", "ns"},
	{"topic.publish_ns.p50", "ns"},
	{"topic.publish_ns.p99", "ns"},
	{"topic.fanout_drop_ratio", "ratio"},
	{"topic.throttled", "count"},
	{"topic.recv_drops", "count"},
	{"topic.recv_wait_ns.p50", "ns"},
	{"gateway.client_publish_ns.p50", "ns"},
	{"gateway.deliver_wait_ns.p50", "ns"},
	{"gateway.deliver_wait_ns.p99", "ns"},
	{"gateway.matched", "count"},
	{"gateway.inbox_drops", "count"},
	{"gateway.client_dropped", "count"},
	{"gateway.client_queued", "count"},
	{"fabric.poll_hit_ratio", "ratio"},
	{"proc.bench_busy_cores", "cores"},
	{"proc.daemon_busy_cores", "cores"},
	{"harness.gen_late_p50_us", "us"},
	{"harness.gen_late_p99_us", "us"},
	{"harness.trace_overhead", "ratio"},
	{"harness.loss_ratio", "ratio"},
	{"harness.latency_p99_us", "us"},
	{"self.harness_ns_per_msg", "ns/msg"},
	{"self.core_ns_per_msg", "ns/msg"},
	{"self.topic_ns_per_msg", "ns/msg"},
	{"self.gateway_ns_per_msg", "ns/msg"},
	{"self.nettrans_ns_per_msg", "ns/msg"},
	{"self.fabric_ns_per_msg", "ns/msg"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runConfig, phase) (*report, error){
	"echo_daemon":  runEcho,
	"fanout_mixed": runFanout,
	"gateway_loop": runGateway,
}

// runConfig is what every workload gets from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	flipcd   string // daemon binary for echo_daemon
	outDir   string // spans and per-run records
}

// phase sizes one measurement of a workload: how many extra set-ups
// are timed, how many measured passes (each on its own set-up) share
// the traffic time, how long the traffic-free window on the first
// set-up lasts, and whether the layers are traced.
type phase struct {
	setups  int
	passes  int
	idle    time.Duration
	traffic time.Duration
	traced  bool
}

// metric is one reported figure. n is the number of samples behind a
// timing (-1 for counts, ratios and rates); na marks a layer metric
// whose layer this workload does not exercise, and refused a
// percentile with too few samples beyond it. Both report 0.
type metric struct {
	value   float64
	unit    string
	n       int64
	na      bool
	refused bool
}

// report collects one phase's metrics, its operation ledger, and any
// correctness or percentile-honesty violations.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
	tracer    *tracer
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{value: v, unit: unit, n: -1}
}

// timing reports the p-th percentile of sorted nanosecond samples,
// divided by div (1 for ns, 1e3 for µs). A percentile with fewer than
// minBeyond samples above it is a violation, not a number.
func (r *report) timing(name string, sorted []int64, p, div float64, unit string) {
	v, err := percentile(sorted, p)
	if err != nil {
		r.problem("%s: %v", name, err)
		r.metrics[name] = metric{unit: unit, n: int64(len(sorted)), refused: true}
		return
	}
	r.metrics[name] = metric{value: float64(v) / div, unit: unit, n: int64(len(sorted))}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the final line's schema.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run returns 0 on a correct run, 1 when a correctness or honesty
// check failed (the result line then says correct=false), and 2 when
// the benchmark could not run at all (no result line).
func run(args []string, stdout io.Writer) (code int) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &runConfig{}
	fl.StringVar(&cfg.workload, "workload", "", "echo_daemon, fanout_mixed, gateway_loop, or all three in turn")
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fl.IntVar(&cfg.seconds, "seconds", 30, "measured traffic seconds")
	traceFlag := fl.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	fl.StringVar(&cfg.flipcd, "flipcd", ".bench_build/flipcd", "flipcd binary built from the tree under test")
	fl.StringVar(&cfg.outDir, "out", ".bench_build", "directory for span dumps and run records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if cfg.workload == "all" {
		// A later -workload flag overrides the first.
		for _, w := range []string{"echo_daemon", "fanout_mixed", "gateway_loop"} {
			code = max(code, run(append(append([]string(nil), args...), "-workload", w), stdout))
		}
		return code
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload echo_daemon|fanout_mixed|gateway_loop|all, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	defer func() {
		if err := killChildren(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			code = 2
		}
	}()
	traced := *traceFlag == 1
	prov := provenance(cfg, traced)
	fmt.Fprintf(stdout, "# %s\n", prov)

	var rep *report
	var err error
	traffic := time.Duration(cfg.seconds) * time.Second
	if !traced {
		rep, err = runner(cfg, phase{setups: extraSetups, passes: runPasses, idle: 2 * time.Second, traffic: traffic})
	} else {
		rep, err = tracedRun(cfg, runner, traffic)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]resultItem)}
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		switch {
		case ok && m.unit != d.unit:
			rep.problem("%s reported in %s, declared %s", d.name, m.unit, d.unit)
		case !ok && !traced:
			rep.problem("%s was not measured", d.name)
		case !ok:
			m = metric{unit: d.unit, n: 0, na: true}
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.problem("%s is %v", d.name, m.value)
			m.value = 0
		}
		res.Metrics[d.name] = resultItem{Value: m.value, Unit: d.unit}
		printMetric(stdout, d.name, m)
	}
	if !traced {
		printIssueNames(stdout, cfg.workload, rep)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "# VIOLATION: %s\n", p)
	}
	res.Correct = len(rep.problems) == 0
	if err := writeRecord(cfg, traced, prov, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun measures the workload untraced and then traced, each for
// half the traffic time on its own set-up, reports the traced pass's
// layer metrics, and prices tracing as the relative change of the
// median latency between the two passes.
func tracedRun(cfg *runConfig, runner func(*runConfig, phase) (*report, error), traffic time.Duration) (*report, error) {
	half := traffic / 2
	if half < time.Second {
		half = time.Second
	}
	plain, err := runner(cfg, phase{passes: 1, traffic: half})
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	rep, err := runner(cfg, phase{passes: 1, traffic: half, traced: true})
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep.problems = append(plain.problems, rep.problems...)
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	base, ok1 := plain.metrics["latency_p50_us"]
	tr, ok2 := rep.metrics["latency_p50_us"]
	if ok1 && ok2 && !base.refused && !tr.refused && base.value > 0 {
		rep.set("harness.trace_overhead", (tr.value-base.value)/base.value, "ratio")
		rep.note("trace overhead on latency_p50_us: untraced %.1f us, traced %.1f us", base.value, tr.value)
	}
	if rep.tracer != nil {
		spans := rep.tracer.recorded()
		self := selfTimes(spans)
		msgs := rep.metrics["harness.msgs"].value
		// A full table keeps the start of the pass; the steady traffic
		// after it is assumed to mix spans in the same proportions.
		share := 1.0
		if d := rep.tracer.dropped.Load(); d > 0 && len(spans) > 0 {
			share = float64(len(spans)) / float64(int64(len(spans))+d)
			rep.note("span table full: %d spans recorded, %d not; self times are scaled by %.3f", len(spans), d, 1/share)
		}
		for _, layer := range sortedLayers(self) {
			rep.note("self time %-8s %12.0f ns over %d recorded spans", layer, float64(self[layer]), len(spans))
			if msgs > 0 {
				rep.set("self."+layer+"_ns_per_msg", float64(self[layer])/share/msgs, "ns/msg")
			}
		}
		dir := filepath.Join(cfg.outDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
			if err := rep.tracer.writeSpans(path); err != nil {
				rep.note("span dump failed: %v", err)
			} else {
				rep.note("spans written to %s", path)
			}
		}
	}
	return rep, nil
}

func printMetric(w io.Writer, name string, m metric) {
	switch {
	case m.na:
		fmt.Fprintf(w, "%-32s %14s %-13s (layer not on this workload's path)\n", name, "n/a", m.unit)
	case m.refused:
		fmt.Fprintf(w, "%-32s %14s %-13s (n=%d: too few samples beyond it)\n", name, "refused", m.unit, m.n)
	case m.n >= 0:
		fmt.Fprintf(w, "%-32s %14.4f %-13s (n=%d)\n", name, m.value, m.unit, m.n)
	default:
		fmt.Fprintf(w, "%-32s %14.4f %-13s\n", name, m.value, m.unit)
	}
}

// issueNames gives each workload's figures the names they go by in
// that workload's own terms; the shared names above are what
// BENCHMARK.json declares.
var issueNames = map[string][][2]string{
	"echo_daemon":  {{"rtt_p50_us", "latency_pooled_p50_us"}, {"rtt_p99_us", "latency_p99_us"}, {"exchanges_per_s", "msgs_per_s"}},
	"fanout_mixed": {{"ctl_p50_us", "latency_pooled_p50_us"}, {"ctl_p99_us", "latency_p99_us"}, {"ctl_saturated_p50_us", "ctl_saturated_p50_us"}, {"ctl_saturated_p99_us", "ctl_saturated_p99_us"}, {"bulk_goodput_fps", "msgs_per_s"}, {"bulk_p50_us", "bulk_p50_us"}},
	"gateway_loop": {{"rtt_p50_us", "latency_pooled_p50_us"}, {"rtt_p99_us", "latency_p99_us"}, {"exchanges_per_s", "msgs_per_s"}},
}

// printIssueNames prints the workload's figures under their own names,
// and the loss ratio, which rides in the result line as failed over
// attempted.
func printIssueNames(w io.Writer, workload string, rep *report) {
	for _, a := range issueNames[workload] {
		if m, ok := rep.metrics[a[1]]; ok {
			printMetric(w, a[0], m)
		}
	}
	loss := metric{unit: "ratio", n: -1}
	if rep.attempted > 0 {
		loss.value = float64(rep.failed) / float64(rep.attempted)
	}
	printMetric(w, "loss_ratio", loss)
	fmt.Fprintf(w, "# loss_ratio = failed %d / attempted %d\n", rep.failed, rep.attempted)
}

// provenance labels a result with where and how it was measured.
func provenance(cfg *runConfig, traced bool) string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s source=%s link=loopback, not a real link",
		cfg.workload, cfg.seed, cfg.seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), sourceDigest("."))
}

// sourceDigest identifies the tree under test: a SHA-256 over the
// paths and contents of its Go sources and module files. The benchmark
// may run in a checkout without git metadata, so this stands in for
// the commit.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeRecord stores the run's provenance, metrics with sample counts,
// notes and violations under outDir/results.
func writeRecord(cfg *runConfig, traced bool, prov string, rep *report) error {
	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type item struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int64   `json:"samples"`
		NA      bool    `json:"not_applicable,omitempty"`
	}
	rec := struct {
		Provenance string          `json:"provenance"`
		Attempted  int64           `json:"attempted"`
		Failed     int64           `json:"failed"`
		Metrics    map[string]item `json:"metrics"`
		Notes      []string        `json:"notes"`
		Problems   []string        `json:"violations"`
	}{prov, rep.attempted, rep.failed, make(map[string]item), rep.notes, rep.problems}
	for k, m := range rep.metrics {
		rec.Metrics[k] = item{m.value, m.unit, m.n, m.na}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, t)), b, 0o644)
}
