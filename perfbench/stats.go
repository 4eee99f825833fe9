package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile honesty rule: a percentile is reported
// only when at least this many samples lie above it, so a p99 needs
// at least 1000 samples and a p50 at least 20.
const minBeyond = 10

// samples collects int64 observations up to a fixed capacity. Past
// it, every other kept sample is dropped and the keep stride doubles,
// so a long run keeps a uniform subsample in bounded memory. seen
// counts every observation offered, kept or not.
type samples struct {
	v      []int64
	max    int
	stride int64
	seen   int64
}

func newSamples(max int) *samples {
	if max < 2 {
		max = 2
	}
	return &samples{v: make([]int64, 0, max), max: max, stride: 1}
}

func (s *samples) add(x int64) {
	s.seen++
	if (s.seen-1)%s.stride != 0 {
		return
	}
	if len(s.v) == s.max {
		j := 0
		for i := 0; i < len(s.v); i += 2 {
			s.v[j] = s.v[i]
			j++
		}
		s.v = s.v[:j]
		s.stride *= 2
		if (s.seen-1)%s.stride != 0 {
			return
		}
	}
	s.v = append(s.v, x)
}

// sorted returns the kept samples in ascending order (a copy).
func (s *samples) sorted() []int64 {
	out := append([]int64(nil), s.v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100)
// of ascending samples: the smallest sample with at least p% of the
// samples at or below it. It refuses when fewer than minBeyond
// samples lie above that rank.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has only %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// quartile returns the q-th quartile (1 or 3) of xs by nearest rank:
// the smallest value with at least q/4 of the values at or below it.
func quartile(xs []float64, q int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(q) / 4 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// medianFloat returns the median of xs (mean of the middle pair for
// an even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
