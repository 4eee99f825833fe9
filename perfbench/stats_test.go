package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int64
	}{
		{20, 50, 10},     // rank ceil(10) = 10
		{21, 50, 11},     // rank ceil(10.5) = 11
		{1000, 99, 990},  // exactly ten samples beyond
		{2000, 99, 1980}, // twenty beyond
		{100, 90, 90},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Errorf("p%v of %d: %v", c.p, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("p%v of 1..%d = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{999, 99}, {19, 50}, {0, 50}, {5, 50}} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d samples = %d, want a refusal", c.p, c.n, v)
		}
	}
	_, err := percentile(seq(500), 99)
	if err == nil || !strings.Contains(err.Error(), "only 5 beyond") {
		t.Errorf("refusal should say how many samples lie beyond: %v", err)
	}
	if _, err := percentile(seq(100), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestSamplesDecimateUniformly(t *testing.T) {
	s := newSamples(8)
	for i := int64(0); i < 100; i++ {
		s.add(i)
	}
	if s.seen != 100 {
		t.Fatalf("seen %d, want 100", s.seen)
	}
	if len(s.v) > 8 {
		t.Fatalf("kept %d samples, cap 8", len(s.v))
	}
	// Every kept sample is a multiple of the final stride, in order:
	// a uniform subsample, not the first or last few.
	for i, v := range s.v {
		if v != int64(i)*s.stride {
			t.Fatalf("kept %v with stride %d, want multiples of the stride", s.v, s.stride)
		}
	}
	if last := s.v[len(s.v)-1]; last < 100-2*s.stride {
		t.Errorf("subsample stops at %d of 100", last)
	}
}

func TestMedianFloat(t *testing.T) {
	if m := medianFloat([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	if m := medianFloat([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
}

// The open-loop schedule times every frame from when it was due, not
// from when the generator got round to publishing it.
func TestScheduleDueTimes(t *testing.T) {
	s := &schedule{start: 1_000_000, bulkGap: 50_000, ctlGap: 2_000_000, ctlJitter: []int64{0, 0, 300_000}}
	if d := s.bulkDue(0); d != 1_000_000 {
		t.Errorf("bulk 0 due %d", d)
	}
	if d := s.bulkDue(3); d != 1_150_000 {
		t.Errorf("bulk 3 due %d", d)
	}
	if d := s.ctlDue(2); d != 5_300_000 {
		t.Errorf("control 2 due %d", d)
	}
	// A control frame due at 5.3 ms that arrives at 5.9 ms took 600 µs,
	// however late it was published.
	if lat := int64(5_900_000) - s.ctlDue(2); lat != 600_000 {
		t.Errorf("latency from due %d", lat)
	}
}

// The Control jitter moves each frame within its own slot, so the
// schedule stays in order and the receiver's next-due logic holds.
func TestControlJitterKeepsOrder(t *testing.T) {
	s := &schedule{start: 0, bulkGap: 50_000, ctlGap: 500_000, ctlJitter: []int64{499_999, 0, 250_000, 0}}
	for j := uint32(0); j < 16; j++ {
		if a, b := s.ctlDue(j), s.ctlDue(j+1); b <= a {
			t.Fatalf("control %d due %d, control %d due %d", j, a, j+1, b)
		}
		if d := s.ctlDue(j) - int64(j)*s.ctlGap; d < 0 || d >= s.ctlGap {
			t.Fatalf("control %d due %d outside its slot", j, s.ctlDue(j))
		}
	}
}

// Rates take the upper quartile of the passes, costs and latency the
// lower; the p99 pools every pass's samples.
func TestSummarizeQuartilesAndPools(t *testing.T) {
	var ps []passResult
	for i := 1; i <= 2; i++ {
		lat := newSamples(4096)
		for v := int64(1); v <= 1000; v++ {
			lat.add((v + int64(i-1)*1000) * 1000) // pass 1: 1..1000 µs, pass 2: 1001..2000 µs
		}
		ps = append(ps, passResult{
			cpu: cpuSpan{wall: time.Duration(i) * time.Second, self: time.Duration(i) * time.Second},
			ops: uint64(1000 * i * i), msgs: uint64(2000 * i * i), lat: lat,
		})
	}
	rep := newReport()
	summarize(rep, ps, false)
	want := map[string]float64{
		"msgs_per_s":            2000, // of the pass rates 1000 and 2000 /s
		"cpu_us_per_msg":        250,  // of the pass costs 500 and 250 µs
		"latency_p50_us":        500,  // lower quartile of the pass medians 500 and 1500 µs
		"latency_pooled_p50_us": 1000, // of 1..2000 µs pooled
		"latency_p99_us":        1980,
	}
	for k, v := range want {
		if m := rep.metrics[k]; m.value != v {
			t.Errorf("%s = %v, want %v", k, m.value, v)
		}
	}
	if n := rep.metrics["latency_p50_us"].n; n != 2000 {
		t.Errorf("latency sample count %d, want 2000", n)
	}
	rep = newReport()
	summarize(rep, ps, true)
	if _, ok := rep.metrics["latency_p99_us"]; ok {
		t.Error("a traced run reported the end-to-end p99")
	}
	if m := rep.metrics["harness.latency_p99_us"]; m.value != 1980 {
		t.Errorf("traced p99 %v, want 1980", m.value)
	}

	// Too few samples for an honest p99 fail the run rather than
	// report one.
	short := newSamples(64)
	for v := int64(1); v <= 500; v++ {
		short.add(v)
	}
	rep = newReport()
	summarize(rep, []passResult{{cpu: ps[0].cpu, ops: 1, msgs: 1, lat: short}}, false)
	if m := rep.metrics["latency_p99_us"]; !m.refused || m.value != 0 || len(rep.problems) == 0 {
		t.Errorf("p99 over 64 samples: %+v, violations %v", m, rep.problems)
	}
}
