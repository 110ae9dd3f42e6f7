package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// op is one completed operation of a timed phase: when it finished
// (relative to the phase start), how long it took, and how many trace
// events it carried.
type op struct {
	end    time.Duration
	dur    time.Duration
	events int
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the first and third quartiles by the "exclusive"
// method, which is what Python's statistics.quantiles(xs, n=4) computes,
// so the spreads printed here match ones computed from the same values
// with that function.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}

// windowRate splits a phase of length d into whole one-second windows
// (one window when d is shorter) and returns the median over windows of
// events completed per second. Ops finishing after d are not counted.
func windowRate(ops []op, d time.Duration) float64 { return median(windowRates(ops, d)) }

// windowRates is the events per second of each window of windowRate.
func windowRates(ops []op, d time.Duration) []float64 {
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	w := d / time.Duration(n)
	sums := make([]float64, n)
	for _, o := range ops {
		if o.end < 0 || o.end >= d {
			continue
		}
		sums[int(o.end/w)] += float64(o.events)
	}
	for i := range sums {
		sums[i] /= w.Seconds()
	}
	return sums
}

// opRate is the median over ops of events per second of op time, for
// workloads whose ops are long (a regeneration, a grid pass).
func opRate(ops []op) float64 {
	r := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.dur > 0 {
			r = append(r, float64(o.events)/o.dur.Seconds())
		}
	}
	return median(r)
}

func durationsMS(ops []op) []float64 {
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = float64(o.dur) / float64(time.Millisecond)
	}
	return ms
}

// tailPercentile returns the highest of the 99.9th, 99th and 90th
// percentiles that has at least ten of n samples beyond it, or 0 when
// even the 90th has fewer (n < 100).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
