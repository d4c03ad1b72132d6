package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// calibRefMs is calibrateOnce's median on the reference machine, a
// 2-vCPU x86-64 VM running Go 1.24, over the pauses of ten runs of each
// workload. Time-based metrics are reported as if measured there: see
// speed.
const calibRefMs = 11.8

// calibRuns is how many kernel runs make one calibration.
const calibRuns = 5

// calibDrift is the largest change in the machine's own speed, the
// fastest kernel run, between the first and second half of a run that
// the run accepts.
const calibDrift = 0.5

// calibSink keeps calibKernel's results live, so the compiler cannot
// drop the loop.
var calibSink uint64

// calibKernel is the fixed CPU reference the time-based metrics are
// scaled by. It is shaped like the admission path — string-keyed link
// accounting in a map, small per-request allocations, a periodic sorted
// scan with deletions — and must never be edited: calibRefMs was
// measured from it.
func calibKernel() uint64 {
	type hop struct {
		link string
		rate float64
	}
	links := make(map[string]float64, 512)
	var sum uint64
	for req := 0; req < 10000; req++ {
		path := make([]hop, 0, 8)
		for h := 0; h < 8; h++ {
			id := (req*31 + h*17) % 509
			path = append(path, hop{link: "link-" + strconv.Itoa(id), rate: float64(req%7 + 1)})
		}
		for _, hp := range path {
			links[hp.link] += hp.rate
		}
		if req%256 == 255 {
			keys := make([]string, 0, len(links))
			for k := range links {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, k := range keys {
				sum += uint64(links[k])
				if i%3 == 0 {
					delete(links, k)
				}
			}
		}
	}
	return sum
}

// calibrate runs the kernel calibRuns times, after one untimed run that
// maps the memory it allocates, and returns each run's time in
// milliseconds.
func calibrate() []float64 {
	calibrateOnce()
	ms := make([]float64, calibRuns)
	for i := range ms {
		ms[i] = calibrateOnce()
	}
	return ms
}

// calibrateOnce runs the kernel once on each of the loadProcs processors
// at the same time and returns the mean of their times in milliseconds.
// The collector is run before and held off during the kernel, so only
// the kernel's own work is timed.
func calibrateOnce() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var ms [loadProcs]float64
	var sums [loadProcs]uint64
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			sums[i] = calibKernel()
			ms[i] = time.Since(start).Seconds() * 1e3
		}(i)
	}
	wg.Wait()
	var total float64
	for i := range ms {
		calibSink += sums[i]
		total += ms[i]
	}
	return total / loadProcs
}
