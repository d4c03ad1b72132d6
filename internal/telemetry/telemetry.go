// Package telemetry implements the data-collection layer of the
// paper's fine-grained monitoring system (§3.1): pluggable sources
// (hardware counters vs software interception), a bounded in-memory
// ring store, and a periodic collection pipeline whose
// storage/processing placement is explicit — local on-device
// processing, spooling to host memory, or shipping to a remote
// monitoring device — so the Q2 overhead dilemma can be measured
// rather than hand-waved.
package telemetry

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Metric names a measured quantity.
type Metric string

// Metrics emitted by the built-in sources.
const (
	// MetricBytes is a cumulative byte counter.
	MetricBytes Metric = "bytes"
	// MetricUtilization is instantaneous link utilization in [0,1].
	MetricUtilization Metric = "util"
	// MetricRate is an instantaneous allocated rate in bytes/second.
	MetricRate Metric = "rate"
)

// Point is one telemetry sample.
type Point struct {
	At     simtime.Time
	Link   topology.LinkID
	Tenant fabric.TenantID // empty for aggregate-only sources
	Metric Metric
	Value  float64
	// Stale marks values served from a rate-limited cache.
	Stale bool
}

// encodedPointBytes is the on-wire/in-memory footprint of one point,
// used to charge bandwidth for non-local placements.
const encodedPointBytes = 48

// Source produces telemetry points when polled.
type Source interface {
	// Name identifies the source ("counters", "intercept").
	Name() string
	// Collect appends the current points to dst and returns the
	// extended slice, so a caller that passes its buffer back in
	// collects without allocating. Implementations must be
	// deterministic given the fabric state.
	Collect(dst []Point) []Point
	// CostPerPoint is the modeled CPU time spent producing one point
	// (software interception is more expensive than reading a
	// hardware counter block).
	CostPerPoint() simtime.Duration
}

// Placement says where collected data is stored and processed — the
// paper's Q2 design axis.
type Placement string

// Placements supported by the pipeline.
const (
	// PlaceLocal processes samples on the collecting device: no
	// fabric traffic, but consumes scarce on-device compute.
	PlaceLocal Placement = "local"
	// PlaceMemory spools samples to host DRAM: consumes memory-bus
	// bandwidth on the collector's socket.
	PlaceMemory Placement = "memory"
	// PlaceRemote ships samples to a dedicated monitoring device over
	// PCIe: consumes PCIe and memory bandwidth along the way.
	PlaceRemote Placement = "remote"
)

// RingStore is a bounded ring buffer of points — the monitor's working
// set is explicitly finite (Q2: storage is a real resource).
type RingStore struct {
	buf     []Point
	next    int
	full    bool
	dropped uint64
}

// NewRingStore allocates a store holding at most capacity points.
func NewRingStore(capacity int) (*RingStore, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive ring capacity")
	}
	return &RingStore{buf: make([]Point, 0, capacity)}, nil
}

// Add appends a point, evicting the oldest when full.
func (r *RingStore) Add(p Point) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, p)
		return
	}
	r.full = true
	r.dropped++
	r.buf[r.next] = p
	r.next = (r.next + 1) % cap(r.buf)
}

// Len returns the number of stored points.
func (r *RingStore) Len() int { return len(r.buf) }

// Dropped returns how many points have been evicted.
func (r *RingStore) Dropped() uint64 { return r.dropped }

// Since returns all stored points with At >= t, oldest first.
func (r *RingStore) Since(t simtime.Time) []Point {
	out := make([]Point, 0, len(r.buf))
	for _, p := range r.inOrder() {
		if p.At >= t {
			out = append(out, p)
		}
	}
	return out
}

// Latest returns the most recent point matching link/metric (and
// tenant, when tenant is non-empty), or false.
func (r *RingStore) Latest(link topology.LinkID, metric Metric, tenant fabric.TenantID) (Point, bool) {
	ordered := r.inOrder()
	for i := len(ordered) - 1; i >= 0; i-- {
		p := ordered[i]
		if p.Link == link && p.Metric == metric && (tenant == "" || p.Tenant == tenant) {
			return p, true
		}
	}
	return Point{}, false
}

func (r *RingStore) inOrder() []Point {
	if !r.full {
		return r.buf
	}
	out := make([]Point, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
