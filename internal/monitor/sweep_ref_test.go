package monitor

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// refMonitor is the sweep before it read only utilization: every pass
// builds each link's full LinkStats, per-tenant byte map included,
// keeps the above-watermark set in a map keyed by link ID, and reads
// every component's configuration into a fresh key list.
// TestSweepMatchesReference holds Monitor.sweep to it.
type refMonitor struct {
	fab      *fabric.Fabric
	opts     Options
	baseline map[topology.CompID]map[string]string
	above    map[topology.LinkID]bool
	alerts   []Alert
	sweeps   uint64
}

func (m *refMonitor) sweep() {
	m.sweeps++
	now := m.fab.Engine().Now()
	for _, st := range m.fab.AllLinkStats() {
		wasAbove := m.above[st.Link]
		isAbove := st.Utilization >= m.opts.CongestionWatermark
		if isAbove && !wasAbove {
			m.addAlert(Alert{At: now, Kind: AlertCongestion, Link: st.Link, Utilization: st.Utilization})
		}
		m.above[st.Link] = isAbove
	}
	for _, c := range m.fab.Topology().Components() {
		base := m.baseline[c.ID]
		keys := make([]string, 0, len(c.Config))
		for k := range c.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
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

func (m *refMonitor) addAlert(a Alert) {
	if len(m.alerts) >= m.opts.AlertCapacity {
		m.alerts = m.alerts[1:]
	}
	m.alerts = append(m.alerts, a)
}

// TestSweepMatchesReference sweeps one two-socket fabric with the
// monitor and the reference after every step of a seeded schedule of
// tenant load, degradations, failures, restores and config changes:
// both must raise the same alerts in the same order.
func TestSweepMatchesReference(t *testing.T) {
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, simtime.NewEngine(9), fabric.DefaultConfig())
	opts := DefaultOptions()
	opts.AlertCapacity = 64 // exercise the history bound too
	m, err := New(fab, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.snapshotConfig() // what Start does, without the ticker
	ref := &refMonitor{fab: fab, opts: opts, baseline: make(map[topology.CompID]map[string]string),
		above: make(map[topology.LinkID]bool)}
	for id, base := range m.baseline {
		ref.baseline[id] = maps.Clone(base)
	}

	rng := rand.New(rand.NewSource(17))
	links := topo.Links()
	devs := []topology.CompID{"gpu0", "gpu1", "nic0", "nic1", "ssd0", "ssd1", "socket0.dimm0_0", "socket1.dimm1_0"}
	var flows []*fabric.Flow
	for i := 0; i < 600; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			src, dst := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
			if p, err := topo.ShortestPath(src, dst); err == nil && p.Hops() > 0 {
				fl := &fabric.Flow{Tenant: fabric.TenantID([]string{"a", "b"}[rng.Intn(2)]), Path: p,
					Demand: topology.GBps(float64(1 + rng.Intn(80)))}
				if fab.AddFlow(fl) == nil {
					flows = append(flows, fl)
				}
			}
		case 2:
			if len(flows) > 0 {
				j := rng.Intn(len(flows))
				fab.RemoveFlow(flows[j])
				flows = append(flows[:j], flows[j+1:]...)
			}
		case 3:
			_ = fab.DegradeLink(links[rng.Intn(len(links))].ID, rng.Float64()*0.9, 0)
		case 4:
			if l := links[rng.Intn(len(links))]; rng.Intn(2) == 0 {
				_ = fab.FailLink(l.ID)
			} else {
				_ = fab.RestoreLink(l.ID)
			}
		case 5:
			comps := topo.Components()
			comps[rng.Intn(len(comps))].SetConfig([]string{topology.ConfigIOMMU, "ddio", "mps"}[rng.Intn(3)],
				[]string{"on", "off", "translate"}[rng.Intn(3)])
		}
		fab.Engine().RunFor(simtime.Duration(rng.Intn(200)) * simtime.Microsecond)
		m.sweep()
		ref.sweep()
		if !slices.Equal(m.Alerts(), ref.alerts) || m.Sweeps() != ref.sweeps {
			t.Fatalf("step %d: alerts diverge:\n got %+v\nwant %+v", i, m.Alerts(), ref.alerts)
		}
	}
	if len(m.AlertsOfKind(AlertCongestion)) == 0 || len(m.AlertsOfKind(AlertConfigDrift)) == 0 {
		t.Fatalf("schedule too tame: alerts %+v", m.Alerts())
	}
}
