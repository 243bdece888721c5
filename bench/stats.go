package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it (choosing-metrics: "the highest percentile that has
// at least ten samples beyond it").
const minBeyond = 10

// samplesBeyond is the number of samples ranked above the q-quantile.
func samplesBeyond(n int, q float64) int {
	return n - quantileRank(n, q) - 1
}

// quantileRank is the nearest-rank index of the q-quantile in n sorted samples.
func quantileRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// quantileNs returns the q-quantile of sorted nanosecond samples in
// microseconds, or 0 for no samples.
func quantileNs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[quantileRank(len(sorted), q)]) / 1e3
}

// highestSupported returns the largest of the usual percentiles that n
// samples support under the minBeyond rule, or 0 when none does.
func highestSupported(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if samplesBeyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// The host this runs on slows down for seconds at a time, and only ever
// slows down: a fixed loop takes 205 ms or, for a while, 280. A median over
// a whole run therefore moves by 20% between runs of the same code. So a
// run is cut into windows, each metric is computed per window, and the
// value reported is the boundary of the best decile of windows: the
// throughput one window in ten reaches, the latency one window in ten
// stays under. A change to the code moves every window, the good ones too.

// bestDecile is the share of windows at least as good as the value reported.
const bestDecile = 0.1

// fullWindows drops the last window, which the deadline cut short, unless
// nothing completed in any other.
func fullWindows[T any](w []T, empty func(T) bool) []T {
	for _, x := range w[:max(len(w)-1, 0)] {
		if !empty(x) {
			return w[:len(w)-1]
		}
	}
	return w
}

// bestDecileOf returns the value that bounds the best decile of v, where
// best is highest or lowest; 0 for no values.
func bestDecileOf(v []float64, highest bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	k := quantileRank(len(s), 1-bestDecile)
	if !highest {
		k = len(s) - 1 - k
	}
	return s[k]
}

// windowThroughput is the rate per second that the best decile of windows
// reached: counts[i] is what completed in window i of length w.
func windowThroughput[N int64 | float64](counts []N, w time.Duration) float64 {
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / w.Seconds()
	}
	return bestDecileOf(rates, true)
}

// windowLatency is the q-quantile latency in microseconds that the best
// decile of windows stayed under: perWindow[i] is window i's sorted
// nanosecond samples. Windows holding under a tenth of the fullest
// window's samples are stragglers of a stall and are skipped.
func windowLatency(perWindow [][]uint32, q float64) float64 {
	most := 0
	for _, win := range perWindow {
		most = max(most, len(win))
	}
	var qs []float64
	for _, win := range perWindow {
		if len(win) > 0 && len(win) >= most/10 {
			qs = append(qs, quantileNs(win, q))
		}
	}
	return bestDecileOf(qs, false)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the driver's spread rule is stated in those terms). One value
// yields itself three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is how much b is worse than a as a share of a, negative when b
// is better, for a metric whose better direction is given.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
