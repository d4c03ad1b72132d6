package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted and whether
// at least minBeyond samples lie beyond it (p99 needs 1,000 samples).
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n-rank >= minBeyond
}

// tail returns p99 when it has enough samples beyond it, otherwise the
// highest percentile that does, with the percentile it reports. With
// minBeyond samples or fewer no percentile qualifies and it returns 0, 0.
func tail(sorted []float64) (value, p float64) {
	if v, ok := percentile(sorted, 0.99); ok {
		return v, 0.99
	}
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0
	}
	rank := n - minBeyond
	return sorted[rank-1], float64(rank) / float64(n)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spread this program reports is the one acceptance computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// minOf returns the smallest of xs (0 when empty).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// speed is the reference-speed factor calibRefMs/calibMs: below 1 when
// this machine ran the calibration kernel slower than the reference.
// Durations are multiplied by it and rates divided by it, so a metric
// reads what the reference machine would have measured.
type speed float64

func (f speed) duration(raw float64) float64 { return raw * float64(f) }
func (f speed) rate(raw float64) float64     { return raw / float64(f) }
