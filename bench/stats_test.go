package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // rank 990 leaves 9 beyond
		{2000, 0.99, 1980, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailFallsBackToHighestQualifyingPercentile(t *testing.T) {
	if v, p := tail(seq(1000)); v != 990 || p != 0.99 {
		t.Errorf("tail(1..1000) = %v at p%v, want 990 at p0.99", v, p)
	}
	if v, p := tail(seq(200)); v != 190 || p != 0.95 {
		t.Errorf("tail(1..200) = %v at p%v, want 190 at p0.95", v, p)
	}
	if v, p := tail(seq(10)); v != 0 || p != 0 {
		t.Errorf("tail(1..10) = %v at p%v, want nothing", v, p)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1064, 1122, 1178, 1218, 1241, 1262}, 1107.5, 1246.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestNormaliseToReferenceSpeed(t *testing.T) {
	// This machine took 40 ms on the kernel against a 32 ms reference: it
	// is 25% slower, so durations shrink and rates grow by that factor.
	f := speed(32.0 / 40.0)
	if got := f.duration(100); math.Abs(got-80) > 1e-9 {
		t.Errorf("duration 100 normalised to %v, want 80", got)
	}
	if got := f.rate(800); math.Abs(got-1000) > 1e-9 {
		t.Errorf("rate 800 normalised to %v, want 1000", got)
	}
	defs := []metricDef{{Name: "lat", duration: true}, {Name: "share"}}
	got := normalise(defs, map[string]float64{"lat": 100, "share": 50, "extra": 7}, f)
	want := map[string]float64{"lat": 80, "share": 50, "extra": 7}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("normalised %s = %v, want %v", k, got[k], v)
		}
	}
}

// A slice's factor comes from the mean of the kernel runs at its marks,
// and a request's latency is scaled by the factor of the slice it ended
// in.
func TestSliceFactors(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	w := &window{}
	// Two full slices of marksPerSlice quarters, then a short tail.
	for k := 0; k <= 2*marksPerSlice+1; k++ {
		cal := calibRefMs
		if k >= marksPerSlice {
			cal = 2 * calibRefMs // the machine ran at half speed in slice 1
		}
		w.marks = append(w.marks, mark{at: ms(250 * k), resume: ms(250*k + 10), calibMs: cal})
	}
	if n := w.slices(); n != 3 {
		t.Fatalf("%d slices, want 3", n)
	}
	if got := w.length(0); got != ms(4*240) {
		t.Errorf("slice 0 carried load for %v, want %v (pauses left out)", got, ms(4*240))
	}
	// Slice 0's marks: four at reference speed, one (its end) shared with
	// slice 1 at half speed.
	if got, want := float64(w.factor(0)), 1/((4+2)/5.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("slice 0 factor %v, want %v", got, want)
	}
	if got := float64(w.factor(1)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("slice 1 factor %v, want 0.5", got)
	}
	for at, want := range map[time.Duration]int{ms(100): 0, ms(999): 0, ms(1001): 1, ms(2100): 2, ms(9000): 2} {
		if got := w.slice(at); got != want {
			t.Errorf("slice(%v) = %d, want %d", at, got, want)
		}
	}
}

func TestPickZeroesMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "us"}, {Name: "b", Unit: "%"}, {Name: "c", Unit: "ms"}}
	got := pick(defs, map[string]float64{"a": 1.5, "b": math.NaN()})
	if got["a"] != (metricValue{1.5, "us"}) || got["b"] != (metricValue{0, "%"}) || got["c"] != (metricValue{0, "ms"}) {
		t.Errorf("pick = %v", got)
	}
}
