package telemetry

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// PipelineConfig describes one periodic collection loop.
type PipelineConfig struct {
	// Period between collections.
	Period simtime.Duration
	// Placement decides where samples are stored/processed.
	Placement Placement
	// Collector is the component doing the collection (its socket
	// determines which memory the spool traffic hits). Typically the
	// host CPU, e.g. "cpu0".
	Collector topology.CompID
	// RemoteSink is the monitoring device samples are shipped to when
	// Placement == PlaceRemote (e.g. a NIC or FPGA).
	RemoteSink topology.CompID
	// StoreCapacity bounds the ring store, in points.
	StoreCapacity int
}

// Overhead summarizes the monitoring loop's resource consumption —
// the quantities experiment E6 sweeps.
type Overhead struct {
	// CPUPerSecond is the modeled collector CPU time consumed per
	// second of virtual time.
	CPUPerSecond simtime.Duration
	// SpoolRate is the fabric bandwidth consumed moving samples to
	// their storage placement (zero for local placement).
	SpoolRate topology.Rate
	// PointsPerSecond is the telemetry production rate.
	PointsPerSecond float64
	// StaleFraction is the fraction of collected points served stale
	// by rate-limited sources.
	StaleFraction float64
	// Collections and Points are cumulative counts.
	Collections uint64
	Points      uint64
}

// Pipeline periodically polls a source, stores points in a ring, and
// charges the fabric for sample movement according to its placement.
type Pipeline struct {
	fab    *fabric.Fabric
	src    Source
	cfg    PipelineConfig
	store  *RingStore
	ticker *simtime.Ticker

	spool       *fabric.Flow
	pts         []Point // the collect buffer, reused every period
	collections uint64
	points      uint64
	stale       uint64
	cpuSpent    simtime.Duration
	startedAt   simtime.Time
}

// NewPipeline validates the configuration and builds a pipeline. Call
// Start to begin collecting.
func NewPipeline(fab *fabric.Fabric, src Source, cfg PipelineConfig) (*Pipeline, error) {
	if src == nil {
		return nil, fmt.Errorf("telemetry: nil source")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive period")
	}
	if cfg.StoreCapacity <= 0 {
		cfg.StoreCapacity = 4096
	}
	topo := fab.Topology()
	if topo.Component(cfg.Collector) == nil {
		return nil, fmt.Errorf("telemetry: unknown collector %q", cfg.Collector)
	}
	switch cfg.Placement {
	case PlaceLocal:
	case PlaceMemory:
	case PlaceRemote:
		if topo.Component(cfg.RemoteSink) == nil {
			return nil, fmt.Errorf("telemetry: unknown remote sink %q", cfg.RemoteSink)
		}
	default:
		return nil, fmt.Errorf("telemetry: unknown placement %q", cfg.Placement)
	}
	store, err := NewRingStore(cfg.StoreCapacity)
	if err != nil {
		return nil, err
	}
	return &Pipeline{fab: fab, src: src, cfg: cfg, store: store}, nil
}

// Start arms the collection ticker and, for non-local placements, the
// spool flow that charges the fabric for sample movement.
func (p *Pipeline) Start() error {
	if p.ticker != nil {
		return fmt.Errorf("telemetry: pipeline already started")
	}
	if err := p.installSpool(); err != nil {
		return err
	}
	p.startedAt = p.fab.Engine().Now()
	p.ticker = p.fab.Engine().Every(p.cfg.Period, p.collect)
	return nil
}

// Stop halts collection and removes the spool flow.
func (p *Pipeline) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
	if p.spool != nil {
		p.fab.RemoveFlow(p.spool)
		p.spool = nil
	}
}

// installSpool creates the placement's bandwidth-charging flow with a
// nominal demand; the demand is updated as the point rate is learned.
func (p *Pipeline) installSpool() error {
	topo := p.fab.Topology()
	var dst topology.CompID
	switch p.cfg.Placement {
	case PlaceLocal:
		return nil
	case PlaceMemory:
		// Spool to the collector's nearest DIMM.
		col := topo.Component(p.cfg.Collector)
		for _, c := range topo.ComponentsOfKind(topology.KindDIMM) {
			if c.Socket == col.Socket {
				dst = c.ID
				break
			}
		}
		if dst == "" {
			return fmt.Errorf("telemetry: no DIMM on collector socket")
		}
	case PlaceRemote:
		dst = p.cfg.RemoteSink
	}
	path, err := topo.ShortestPath(p.cfg.Collector, dst)
	if err != nil {
		return err
	}
	p.spool = &fabric.Flow{Tenant: fabric.SystemTenant, Path: path, Demand: 1}
	return p.fab.AddFlow(p.spool)
}

// collect runs one collection cycle.
func (p *Pipeline) collect() {
	pts := p.src.Collect(p.pts[:0])
	p.pts = pts
	p.collections++
	p.points += uint64(len(pts))
	for _, pt := range pts {
		if pt.Stale {
			p.stale++
		}
		p.store.Add(pt)
	}
	p.cpuSpent += simtime.Duration(len(pts)) * p.src.CostPerPoint()
	if p.spool != nil {
		rate := topology.Rate(float64(len(pts)*encodedPointBytes) / p.cfg.Period.Seconds())
		_ = p.fab.SetDemand(p.spool, rate)
	}
}

// Store exposes the pipeline's ring store for queries.
func (p *Pipeline) Store() *RingStore { return p.store }

// Source returns the pipeline's source.
func (p *Pipeline) Source() Source { return p.src }

// Overhead reports the monitoring loop's resource consumption so far.
func (p *Pipeline) Overhead() Overhead {
	o := Overhead{Collections: p.collections, Points: p.points}
	elapsed := p.fab.Engine().Now().Sub(p.startedAt).Seconds()
	if elapsed > 0 {
		o.CPUPerSecond = simtime.Duration(float64(p.cpuSpent) / elapsed)
		o.PointsPerSecond = float64(p.points) / elapsed
	}
	if p.points > 0 {
		o.StaleFraction = float64(p.stale) / float64(p.points)
	}
	if p.spool != nil {
		o.SpoolRate = p.spool.Demand
	}
	return o
}
