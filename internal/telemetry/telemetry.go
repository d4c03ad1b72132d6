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
	"sort"

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

// encodedPointBytes is the modelled wire size of one point: what the
// pipeline charges the fabric per point spooled to host memory or
// shipped to a remote sink. It is not the in-memory footprint (a ring
// entry is 24 bytes), and it stays fixed because it feeds the
// simulation.
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

// ringChunk is how many entries a ring store allocates at a time
// (96 KiB of 24-byte entries); a power of two so an index splits into
// chunk and offset with a shift and a mask.
const (
	ringChunkShift = 12
	ringChunk      = 1 << ringChunkShift
)

// RingStore is a bounded ring buffer of points — the monitor's working
// set is explicitly finite (Q2: storage is a real resource). It holds
// only what it stores: entries live in fixed-size chunks allocated as
// the ring fills, never copied, up to the capacity. Once full, each
// Add evicts the oldest entry.
//
// Entries are compact and pointer-free (a point's link, tenant and
// metric are one index into the store's series table), so the garbage
// collector never scans the ring; reads convert them back to Points.
type RingStore struct {
	chunks   [][]entry
	capacity int
	n        int // stored entries
	next     int // physical slot of the oldest entry once full
	dropped  uint64
	series   seriesTable
}

// entry is a Point as the ring stores it: 24 bytes, no pointers.
type entry struct {
	At     simtime.Time
	Value  float64
	series uint32
	Stale  bool
}

// series is what a point measures: its link, tenant and metric.
type series struct {
	link   topology.LinkID
	tenant fabric.TenantID
	metric Metric
}

// seriesTable numbers the series a store has seen. It only grows: an
// index stays valid for as long as any entry may carry it. A source
// emits its series in the same order every collection, so the table
// remembers which series followed each one last time and tries that
// before the map: in steady state a point costs one comparison.
type seriesTable struct {
	keys []series
	succ []uint32 // succ[i]: the series that followed series i last time
	idx  map[series]uint32
	last uint32
}

func (t *seriesTable) index(k *series) uint32 {
	if len(t.keys) > 0 {
		i := t.succ[t.last]
		if s := &t.keys[i]; s.link == k.link && s.metric == k.metric && s.tenant == k.tenant {
			t.last = i
			return i
		}
	}
	i, ok := t.idx[*k]
	if !ok {
		i = uint32(len(t.keys))
		t.keys = append(t.keys, *k)
		t.succ = append(t.succ, i)
		t.idx[*k] = i
	}
	t.succ[t.last] = i
	t.last = i
	return i
}

// NewRingStore returns a store holding at most capacity points. It
// allocates no entries until points arrive.
func NewRingStore(capacity int) (*RingStore, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive ring capacity")
	}
	return &RingStore{capacity: capacity, series: seriesTable{idx: make(map[series]uint32)}}, nil
}

// Add appends a point, evicting the oldest when full. Points must
// arrive in nondecreasing At order, as the pipeline's collections do:
// Since relies on it.
func (r *RingStore) Add(p Point) {
	var e *entry
	if r.n < r.capacity {
		if r.n&(ringChunk-1) == 0 {
			r.chunks = append(r.chunks, make([]entry, min(ringChunk, r.capacity-r.n)))
		}
		e = r.slot(r.n)
		r.n++
	} else {
		r.dropped++
		e = r.slot(r.next)
		if r.next++; r.next == r.capacity {
			r.next = 0
		}
	}
	// Field by field: a composite literal is built on the stack and
	// copied with wide loads that stall on store forwarding.
	e.At, e.Value, e.Stale = p.At, p.Value, p.Stale
	e.series = r.series.index(&series{p.Link, p.Tenant, p.Metric})
}

// slot returns the entry at physical index i.
func (r *RingStore) slot(i int) *entry {
	return &r.chunks[i>>ringChunkShift][i&(ringChunk-1)]
}

// at returns the k-th oldest entry.
func (r *RingStore) at(k int) *entry {
	if k += r.next; k >= r.n {
		k -= r.n
	}
	return r.slot(k)
}

// Len returns the number of stored points.
func (r *RingStore) Len() int { return r.n }

// Dropped returns how many points have been evicted.
func (r *RingStore) Dropped() uint64 { return r.dropped }

// Since returns the stored points with At >= t, oldest first. Entries
// are in At order, so it binary-searches the cutoff and converts only
// the points it returns.
func (r *RingStore) Since(t simtime.Time) []Point {
	first := sort.Search(r.n, func(k int) bool { return r.at(k).At >= t })
	out := make([]Point, 0, r.n-first)
	for k := first; k < r.n; k++ {
		e := r.at(k)
		s := r.series.keys[e.series]
		out = append(out, Point{At: e.At, Link: s.link, Tenant: s.tenant, Metric: s.metric, Value: e.Value, Stale: e.Stale})
	}
	return out
}
