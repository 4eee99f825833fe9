package main

import (
	"fmt"
	"runtime"
	"time"
)

// A run measures its traffic in passes, each on a fresh set-up. On a
// shared two-core machine the scheduler settles into a different
// pattern on each set-up (the fanout control median moves by a third
// between set-ups in one process), so only fresh set-ups sample that
// spread. Rates, CPU per message and latency are measured per pass and
// summarized over the passes (see summarize). Set-up time is the
// median over every set-up timed: the passes' own plus extraSetups
// more. Idle CPU is the median of idleParts parts of the traffic-free
// window on the first set-up.
const (
	runPasses   = 20
	extraSetups = 21
	idleParts   = 10
)

// measureIdle returns the median CPU-cores of the meter's processes
// over idleParts equal parts of a traffic-free interval d, plus the
// parts themselves.
func measureIdle(meter *cpuMeter, d time.Duration) (float64, []float64, error) {
	var parts []float64
	for i := 0; i < idleParts; i++ {
		w, err := meter.start()
		if err != nil {
			return 0, nil, err
		}
		time.Sleep(d / idleParts)
		s, err := w.stop()
		if err != nil {
			return 0, nil, err
		}
		parts = append(parts, s.cores(s.total()))
	}
	return medianFloat(parts), parts, nil
}

// passResult is what one pass measured.
type passResult struct {
	cpu  cpuSpan
	ops  uint64   // exchanges, or Bulk frames delivered
	msgs uint64   // application messages delivered
	lat  *samples // the latency metric's samples, ns
	bulk *samples // fanout_mixed: Bulk one-way latency samples, ns
	stop bool     // the pass ended on a lost exchange; run no more
}

// workload is one workload's set-up, teardown and measured pass over
// a rig of type R. build ends when the first message could be sent;
// probe then carries one through the whole path, untimed, so a broken
// set-up fails before it is measured.
type workload[R any] struct {
	build    func() (R, error)
	probe    func(R) error
	teardown func(R) error
	meter    func(R) *cpuMeter
	pass     func(R, time.Duration) (passResult, error)
}

// measurePasses times ph.setups extra set-ups, then runs ph.passes
// passes of ph.traffic/ph.passes each on a fresh set-up, measuring
// idle CPU on the first. A collection before each build keeps the
// previous set-up's garbage out of its timing.
func measurePasses[R any](rep *report, ph phase, w workload[R]) ([]passResult, error) {
	var setups []float64
	timedBuild := func() (R, error) {
		runtime.GC()
		t0 := time.Now()
		r, err := w.build()
		if err != nil {
			return r, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := w.probe(r); err != nil {
			_ = w.teardown(r) // the probe's error is the one to report
			return r, fmt.Errorf("set-up probe: %w", err)
		}
		return r, nil
	}
	for i := 0; i < ph.setups; i++ {
		r, err := timedBuild()
		if err != nil {
			return nil, err
		}
		if err := w.teardown(r); err != nil {
			return nil, err
		}
	}
	var out []passResult
	for i := 0; i < ph.passes; i++ {
		r, err := timedBuild()
		if err != nil {
			return nil, err
		}
		if i == 0 && ph.idle > 0 {
			idle, parts, err := measureIdle(w.meter(r), ph.idle)
			if err != nil {
				_ = w.teardown(r) // the measurement error is the one to report
				return nil, err
			}
			rep.set("idle_cpu_cores", idle, "cores")
			rep.note("idle parts (cores): %.3f", parts)
		}
		res, err := w.pass(r, ph.traffic/time.Duration(ph.passes))
		terr := w.teardown(r)
		if err != nil {
			return nil, err
		}
		if terr != nil {
			return nil, terr
		}
		out = append(out, res)
		if res.stop {
			break
		}
	}
	rep.set("setup_s", medianFloat(setups), "s")
	rep.note("set-up times (ms): %.2f", scale(setups, 1e3))
	return out, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// summarize reports the rate, CPU and latency metrics of the passes.
//
// Each end-to-end metric is first measured per pass, then summarized
// by the quartile on its favourable side: the upper quartile of the
// passes' rates, the lower quartile of their CPU per message and of
// their median latencies. The benchmark shares a small host with other
// tenants, and a pass during which they take the processors runs slow
// as a whole, by a fifth or more; a disturbance only ever makes a pass
// worse, so the favourable quartile holds as long as one pass in four
// ran undisturbed. A change that makes every pass worse still moves it.
func summarize(rep *report, ps []passResult, traced bool) {
	summarizeRate(rep, ps)
	summarizeLatency(rep, ps, traced)
}

// summarizeRate reports msgs_per_s and cpu_us_per_msg, and notes the
// figures over all the passes together.
func summarizeRate(rep *report, ps []passResult) {
	var ops, msgs uint64
	var wall, cpu time.Duration
	var rates, costs []float64
	for _, p := range ps {
		ops += p.ops
		msgs += p.msgs
		wall += p.cpu.wall
		cpu += p.cpu.total()
		if p.cpu.wall > 0 {
			rates = append(rates, float64(p.ops)/p.cpu.wall.Seconds())
		}
		if p.msgs > 0 {
			costs = append(costs, float64(p.cpu.total().Microseconds())/float64(p.msgs))
		}
	}
	if len(rates) > 0 {
		rep.set("msgs_per_s", quartile(rates, 3), "1/s")
	}
	if len(costs) > 0 {
		rep.set("cpu_us_per_msg", quartile(costs, 1), "us")
	}
	if wall > 0 && msgs > 0 {
		rep.note("over all %d passes together: %.1f /s, %.3f us CPU per message",
			len(ps), float64(ops)/wall.Seconds(), float64(cpu.Microseconds())/float64(msgs))
	}
}

// summarizeLatency reports latency_p50_us, the lower quartile of the
// passes' medians, with the sample count of all passes, and the p50
// and p99 over every pass's samples pooled. The pooled figures are
// printed but are not end-to-end metrics; the fanout control tail
// moves by a third between runs on a two-core machine, more than any
// bound could allow. A traced run reports the p99 as
// harness.latency_p99_us.
func summarizeLatency(rep *report, ps []passResult, traced bool) {
	var medians []float64
	for i, p := range ps {
		v, err := percentile(p.lat.sorted(), 50)
		if err != nil {
			rep.problem("latency_p50_us of pass %d: %v", i+1, err)
			continue
		}
		medians = append(medians, float64(v)/1e3)
	}
	all := pooled(ps).sorted()
	if len(medians) > 0 {
		rep.metrics["latency_p50_us"] = metric{value: quartile(medians, 1), unit: "us", n: int64(len(all))}
		rep.note("pass medians (us): %.1f", medians)
	}
	rep.timing("latency_pooled_p50_us", all, 50, 1e3, "us")
	p99 := "latency_p99_us"
	if traced {
		p99 = "harness.latency_p99_us"
	}
	rep.timing(p99, all, 99, 1e3, "us")
}

// pooled gathers the passes' latency samples into one set.
func pooled(ps []passResult) *samples {
	all := newSamples(1 << 22)
	for _, p := range ps {
		for _, v := range p.lat.v {
			all.add(v)
		}
	}
	return all
}

// closedLoop runs one exchange at a time for d, adding each round-trip
// time to lat. It stops at the first exchange that fails: errNoReply
// counts as a loss and stops the run, any other error is returned.
func closedLoop(rep *report, d time.Duration, lat *samples, one func() (time.Duration, error)) (done uint64, lost bool, err error) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		rep.attempted++
		rtt, err := one()
		if err == errNoReply {
			rep.failed++
			return done, true, nil
		}
		if err != nil {
			return done, false, fmt.Errorf("exchange %d: %w", done+1, err)
		}
		done++
		lat.add(int64(rtt))
	}
	return done, false, nil
}
