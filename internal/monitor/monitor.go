// Package monitor implements the paper's "monitor for intra-host
// network configuration and resources" (§3.1): periodic collection of
// per-link and per-tenant usage, watermark-based congestion alerts,
// and a configuration registry watch that detects drift (DDIO flipped
// off, IOMMU mode changed, payload size renegotiated) — the
// misconfigurations that silently reshape intra-host performance.
package monitor

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Options configures a Monitor.
type Options struct {
	// CheckPeriod is the interval between monitoring sweeps.
	CheckPeriod simtime.Duration
	// CongestionWatermark raises an alert when a link's utilization
	// crosses above it (edge-triggered). Typical: 0.9.
	CongestionWatermark float64
	// AlertCapacity bounds the retained alert history.
	AlertCapacity int
}

// DefaultOptions returns 100 us sweeps with a 0.9 watermark.
func DefaultOptions() Options {
	return Options{
		CheckPeriod:         100 * simtime.Microsecond,
		CongestionWatermark: 0.9,
		AlertCapacity:       1024,
	}
}

// AlertKind classifies a monitoring alert.
type AlertKind string

// Alert kinds raised by the monitor.
const (
	// AlertCongestion fires when a link crosses the watermark.
	AlertCongestion AlertKind = "congestion"
	// AlertConfigDrift fires when a component's configuration changed
	// versus the baseline.
	AlertConfigDrift AlertKind = "config-drift"
)

// Alert is one monitoring event.
type Alert struct {
	At   simtime.Time
	Kind AlertKind
	// Link is set for congestion alerts.
	Link topology.LinkID
	// Utilization at the time of a congestion alert.
	Utilization float64
	// Component/Key/Old/New are set for config-drift alerts.
	Component topology.CompID
	Key       string
	Old, New  string
}

// TenantUsage is one tenant's current allocation by link class.
type TenantUsage struct {
	Tenant  fabric.TenantID
	ByClass map[topology.LinkClass]topology.Rate
}

// Report is a point-in-time usage summary — what a fleet dashboard
// would render for one host.
type Report struct {
	At    simtime.Time
	Links []fabric.LinkStats
	// Tenants is sorted by tenant ID.
	Tenants []TenantUsage
	// Congested lists links above the watermark.
	Congested []topology.LinkID
}

// Monitor watches one fabric.
type Monitor struct {
	fab  *fabric.Fabric
	opts Options

	ticker   *simtime.Ticker
	baseline map[topology.CompID]map[string]string
	alerts   []Alert
	sweeps   uint64

	// links, util and above are indexed alike, in the fabric's link
	// order: util is the sweep's reused read buffer, above marks the
	// links currently above the watermark.
	links []topology.LinkID
	util  []float64
	above []bool
	// comps is the topology's component list (fixed; only configs
	// change), gens each component's ConfigGen as the drift pass last
	// read it, and keys the drift pass's reused key buffer.
	comps []*topology.Component
	gens  []uint64
	keys  []string
}

// New builds a monitor over the fabric. Call Start to begin sweeping.
func New(fab *fabric.Fabric, opts Options) (*Monitor, error) {
	if opts.CheckPeriod <= 0 {
		return nil, fmt.Errorf("monitor: non-positive check period")
	}
	if opts.CongestionWatermark <= 0 || opts.CongestionWatermark > 1 {
		return nil, fmt.Errorf("monitor: watermark %v outside (0,1]", opts.CongestionWatermark)
	}
	if opts.AlertCapacity <= 0 {
		opts.AlertCapacity = 1024
	}
	links := fab.LinkIDs()
	comps := fab.Topology().Components()
	return &Monitor{
		fab:   fab,
		opts:  opts,
		links: links,
		util:  make([]float64, 0, len(links)),
		above: make([]bool, len(links)),
		comps: comps,
		gens:  make([]uint64, len(comps)),
	}, nil
}

// Start snapshots the configuration baseline and begins periodic
// sweeps.
func (m *Monitor) Start() error {
	if m.ticker != nil {
		return fmt.Errorf("monitor: already started")
	}
	m.snapshotConfig()
	m.ticker = m.fab.Engine().Every(m.opts.CheckPeriod, m.sweep)
	return nil
}

// Stop halts sweeping. Alerts and reports remain queryable.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Sweeps returns how many monitoring sweeps have run.
func (m *Monitor) Sweeps() uint64 { return m.sweeps }

// snapshotConfig takes every component's configuration as the drift
// baseline.
func (m *Monitor) snapshotConfig() {
	m.baseline = make(map[topology.CompID]map[string]string)
	for i, c := range m.comps {
		m.gens[i] = c.ConfigGen()
		if len(c.Config) == 0 {
			continue
		}
		cp := make(map[string]string, len(c.Config))
		for k, v := range c.Config {
			cp[k] = v
		}
		m.baseline[c.ID] = cp
	}
}

// sweep performs one monitoring pass: watermark checks and config
// drift detection.
func (m *Monitor) sweep() {
	m.sweeps++
	now := m.fab.Engine().Now()
	m.util = m.fab.AppendUtilizations(m.util[:0])
	for i, u := range m.util {
		isAbove := u >= m.opts.CongestionWatermark
		if isAbove && !m.above[i] {
			m.addAlert(Alert{At: now, Kind: AlertCongestion, Link: m.links[i], Utilization: u})
		}
		m.above[i] = isAbove
	}
	// Config drift: compare against baseline and then adopt changes
	// (each drift alerts once). Keys are visited in sorted order so
	// multiple drifts caught by one sweep always alert identically —
	// alert history is part of the deterministic state the snap
	// divergence checker hashes. A component whose ConfigGen has not
	// moved since the last pass cannot have drifted.
	for i, c := range m.comps {
		g := c.ConfigGen()
		if g == m.gens[i] {
			continue
		}
		m.gens[i] = g
		base := m.baseline[c.ID]
		m.keys = m.keys[:0]
		for k := range c.Config {
			m.keys = append(m.keys, k)
		}
		sort.Strings(m.keys)
		for _, k := range m.keys {
			v := c.Config[k]
			old, had := base[k]
			if !had || old != v {
				oldVal := old
				if !had {
					oldVal = "<unset>"
				}
				m.addAlert(Alert{At: now, Kind: AlertConfigDrift,
					Component: c.ID, Key: k, Old: oldVal, New: v})
				if base == nil {
					base = make(map[string]string)
					m.baseline[c.ID] = base
				}
				base[k] = v
			}
		}
	}
}

func (m *Monitor) addAlert(a Alert) {
	if len(m.alerts) >= m.opts.AlertCapacity {
		m.alerts = m.alerts[1:]
	}
	m.alerts = append(m.alerts, a)
}

// Alerts returns the retained alert history, oldest first.
func (m *Monitor) Alerts() []Alert {
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// AlertsOfKind filters the history by kind.
func (m *Monitor) AlertsOfKind(k AlertKind) []Alert {
	var out []Alert
	for _, a := range m.alerts {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// UsageReport assembles the current per-link and per-tenant usage
// summary.
func (m *Monitor) UsageReport() Report {
	r := Report{At: m.fab.Engine().Now(), Links: m.fab.AllLinkStats()}
	for _, st := range r.Links {
		if st.Utilization >= m.opts.CongestionWatermark {
			r.Congested = append(r.Congested, st.Link)
		}
	}
	tenants := m.fab.Tenants()
	for _, t := range tenants {
		r.Tenants = append(r.Tenants, TenantUsage{Tenant: t, ByClass: m.fab.TenantUsage(t)})
	}
	sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Tenant < r.Tenants[j].Tenant })
	return r
}
