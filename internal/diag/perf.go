package diag

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// PerfOptions configures an ihdiag perf bandwidth probe.
type PerfOptions struct {
	// Duration of the measurement.
	Duration simtime.Duration
	// Tenant to run the probe as; defaults to the system tenant.
	// Running as a real tenant measures that tenant's achievable
	// bandwidth under the arbiter's caps — exactly what a tenant
	// inside a virtualized intra-host network would observe.
	Tenant fabric.TenantID
	// Path optionally pins the probe path.
	Path topology.Path
}

// DefaultPerfOptions probes for 1 ms of virtual time.
func DefaultPerfOptions() PerfOptions {
	return PerfOptions{Duration: simtime.Millisecond, Tenant: fabric.SystemTenant}
}

// PerfReport is an ihdiag perf result.
type PerfReport struct {
	Src, Dst topology.CompID
	Path     topology.Path
	// Achieved is the measured throughput over the window.
	Achieved topology.Rate
	// PathCapacity is the path's effective bottleneck capacity after
	// protocol derating and degradation (what an unloaded fabric
	// would deliver).
	PathCapacity topology.Rate
	// BottleneckLink is the path link with the highest utilization at
	// the end of the measurement.
	BottleneckLink topology.LinkID
}

func (r PerfReport) String() string {
	return fmt.Sprintf("%s -> %s: achieved %v of %v path capacity (bottleneck %s)",
		r.Src, r.Dst, r.Achieved, r.PathCapacity, r.BottleneckLink)
}

// PerfSession is an in-flight ihdiag perf probe.
type PerfSession struct {
	fab        *fabric.Fabric
	flow       *fabric.Flow
	report     PerfReport
	start      simtime.Time
	startBytes float64
	done       bool
	onDone     func(PerfReport)
}

// StartPerf launches a greedy probe flow from src to dst and measures
// delivered bytes over the window.
func StartPerf(fab *fabric.Fabric, src, dst topology.CompID, opts PerfOptions, onDone func(PerfReport)) (*PerfSession, error) {
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("diag: non-positive perf duration")
	}
	if opts.Tenant == "" {
		opts.Tenant = fabric.SystemTenant
	}
	path := opts.Path
	if path.Hops() == 0 {
		p, err := fab.Topology().ShortestPath(src, dst)
		if err != nil {
			return nil, err
		}
		path = p
	}
	s := &PerfSession{fab: fab, onDone: onDone, start: fab.Engine().Now()}
	s.report = PerfReport{Src: src, Dst: dst, Path: path, PathCapacity: effectiveBottleneck(fab, path)}
	s.flow = &fabric.Flow{Tenant: opts.Tenant, Path: path}
	if err := fab.AddFlow(s.flow); err != nil {
		return nil, err
	}
	first := path.Links[0].ID
	if st, err := fab.LinkStatsFor(first); err == nil {
		s.startBytes = st.TenantBytes[opts.Tenant]
	}
	fab.Engine().After(opts.Duration, func() { s.finish(first, opts) })
	return s, nil
}

func (s *PerfSession) finish(first topology.LinkID, opts PerfOptions) {
	st, err := s.fab.LinkStatsFor(first)
	elapsed := s.fab.Engine().Now().Sub(s.start).Seconds()
	if err == nil && elapsed > 0 {
		delivered := st.TenantBytes[opts.Tenant] - s.startBytes
		s.report.Achieved = topology.Rate(delivered / elapsed)
	}
	// Identify the hottest hop before tearing the flow down.
	var worst float64 = -1
	for _, l := range s.report.Path.Links {
		if u, err := s.fab.Utilization(l.ID); err == nil && u > worst {
			worst = u
			s.report.BottleneckLink = l.ID
		}
	}
	s.fab.RemoveFlow(s.flow)
	s.done = true
	if s.onDone != nil {
		s.onDone(s.report)
	}
}

// effectiveBottleneck is the minimum effective capacity along a path.
func effectiveBottleneck(fab *fabric.Fabric, path topology.Path) topology.Rate {
	var min topology.Rate
	for i, l := range path.Links {
		c, err := fab.EffectiveCapacity(l.ID)
		if err != nil {
			continue
		}
		if i == 0 || c < min {
			min = c
		}
	}
	return min
}

// Done reports whether the measurement finished.
func (s *PerfSession) Done() bool { return s.done }

// Report returns the (possibly partial) report.
func (s *PerfSession) Report() PerfReport { return s.report }

// RunPerf drives the engine until the probe completes. Standalone use
// only.
func RunPerf(fab *fabric.Fabric, src, dst topology.CompID, opts PerfOptions) (PerfReport, error) {
	s, err := StartPerf(fab, src, dst, opts, nil)
	if err != nil {
		return PerfReport{}, err
	}
	e := fab.Engine()
	for !s.Done() && e.Pending() > 0 {
		e.Step()
	}
	if !s.Done() {
		return s.Report(), fmt.Errorf("diag: perf did not complete")
	}
	return s.Report(), nil
}
