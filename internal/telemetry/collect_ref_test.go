package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// refInterceptCollect is InterceptSource.Collect before it read the
// fabric through EachLinkBytes: every link's LinkStats, with a fresh
// per-tenant byte map each, sorted by tenant name. It is the reference
// TestInterceptCollectMatchesReference holds Collect to.
func refInterceptCollect(fab *fabric.Fabric) []Point {
	now := fab.Engine().Now()
	var out []Point
	for _, st := range fab.AllLinkStats() {
		out = append(out, Point{
			At: now, Link: st.Link, Metric: MetricUtilization, Value: st.Utilization,
		})
		tenants := make([]string, 0, len(st.TenantBytes))
		for t := range st.TenantBytes {
			tenants = append(tenants, string(t))
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			out = append(out, Point{
				At: now, Link: st.Link, Tenant: fabric.TenantID(t),
				Metric: MetricBytes, Value: st.TenantBytes[fabric.TenantID(t)],
			})
		}
	}
	return out
}

// TestInterceptCollectMatchesReference drives a seeded schedule of
// persistent and sized tenant flows, removals, degradations, failures
// and restores, and advances of zero or more virtual time, and after
// every step requires Collect, appending into a reused buffer, to emit
// exactly the reference's points: same order, labels and value bits.
func TestInterceptCollectMatchesReference(t *testing.T) {
	for _, preset := range []string{"two-socket", "dgx-style"} {
		t.Run(preset, func(t *testing.T) {
			topo := topology.Presets[preset]()
			e := simtime.NewEngine(3)
			fab := fabric.New(topo, e, fabric.DefaultConfig())
			src := NewInterceptSource(fab)
			rng := rand.New(rand.NewSource(5))
			comps := topo.Components()
			links := topo.Links()
			var flows []*fabric.Flow
			var buf []Point
			var tenantPoints int
			for step := 0; step < 300; step++ {
				switch rng.Intn(6) {
				case 0, 1: // a flow between two random components
					a, b := comps[rng.Intn(len(comps))].ID, comps[rng.Intn(len(comps))].ID
					p, err := topo.ShortestPath(a, b)
					if err != nil || p.Hops() == 0 {
						break
					}
					fl := &fabric.Flow{
						Tenant: fabric.TenantID(fmt.Sprintf("t%d", rng.Intn(6))), Path: p,
						Demand: topology.GBps(float64(1 + rng.Intn(30))),
					}
					if rng.Intn(3) == 0 {
						fl.Size = int64(1+rng.Intn(256)) << 10
					}
					if fab.AddFlow(fl) == nil && fl.Size == 0 {
						flows = append(flows, fl)
					}
				case 2: // remove a persistent flow
					if len(flows) > 0 {
						i := rng.Intn(len(flows))
						fab.RemoveFlow(flows[i])
						flows = append(flows[:i], flows[i+1:]...)
					}
				case 3: // degrade
					l := links[rng.Intn(len(links))]
					_ = fab.DegradeLink(l.ID, rng.Float64()*0.9, simtime.Duration(rng.Intn(500)))
				case 4: // fail, or (twice as often) restore
					l := links[rng.Intn(len(links))]
					if rng.Intn(3) == 0 {
						_ = fab.FailLink(l.ID)
					} else {
						_ = fab.RestoreLink(l.ID)
					}
				}
				if rng.Intn(4) != 0 {
					e.RunFor(simtime.Duration(rng.Intn(50_000)))
				}
				prefix := Point{Link: "sentinel"}
				buf = src.Collect(append(buf[:0], prefix))
				want := refInterceptCollect(fab)
				if len(buf) != len(want)+1 || buf[0] != prefix {
					t.Fatalf("step %d: %d points after the kept prefix, want %d", step, len(buf)-1, len(want))
				}
				for i, w := range want {
					g := buf[i+1]
					if g.At != w.At || g.Link != w.Link || g.Tenant != w.Tenant || g.Metric != w.Metric ||
						g.Stale != w.Stale || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
						t.Fatalf("step %d point %d: got %+v, want %+v", step, i, g, w)
					}
					if w.Tenant != "" {
						tenantPoints++
					}
				}
			}
			if tenantPoints < 1000 {
				t.Fatalf("only %d per-tenant points compared; the schedule is too thin", tenantPoints)
			}
		})
	}
}
