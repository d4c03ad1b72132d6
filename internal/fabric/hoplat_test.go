package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// refHopLatency is hopLatency before its value was kept per link: the
// queueing model evaluated from scratch, with the IOMMU mode read from
// the root port's config on every call.
func refHopLatency(f *Fabric, ls *linkState) simtime.Duration {
	base := ls.link.BaseLatency + ls.extraLatency
	if ls.inboundRootPort != nil && f.cfg.IOMMULatency > 0 {
		if v, ok := ls.inboundRootPort.ConfigValue(topology.ConfigIOMMU); ok && v == "translate" {
			base += f.cfg.IOMMULatency
		}
	}
	if f.cfg.QueueingFactor <= 0 {
		return base
	}
	var rho float64
	if ls.capacity > 0 {
		rho = min(float64(ls.currentRate)/float64(ls.capacity), 0.999)
	}
	infl := 1 + f.cfg.QueueingFactor*rho/(1-rho)
	if infl > f.cfg.MaxInflation {
		infl = f.cfg.MaxInflation
	}
	return simtime.Duration(float64(base) * infl)
}

// hopSide is one fabric of the hop-latency differential pair.
type hopSide struct {
	fab    *Fabric
	topo   *topology.Topology
	ref    bool
	flows  []*Flow
	routes map[[2]topology.CompID]*Route
	rtts   []simtime.Duration
}

func newHopSide(preset string, ref bool) *hopSide {
	topo := topology.Presets[preset]()
	return &hopSide{
		fab: New(topo, simtime.NewEngine(3), DefaultConfig()), topo: topo, ref: ref,
		routes: make(map[[2]topology.CompID]*Route),
	}
}

// mutate applies one seeded mutation. Both sides draw from identically
// seeded generators, so they apply the same ones; it returns the
// mutation's name for the coverage count.
func (s *hopSide) mutate(rng *rand.Rand) string {
	devs := txDevices(s.topo)
	links := s.topo.Links()
	pick := func() topology.CompID { return devs[rng.Intn(len(devs))] }
	tenant := func() TenantID { return TenantID(fmt.Sprintf("t%d", rng.Intn(3))) }
	switch rng.Intn(9) {
	case 0, 1:
		p, err := s.topo.ShortestPath(pick(), pick())
		if err != nil || p.Hops() == 0 {
			return "noop"
		}
		fl := &Flow{Tenant: tenant(), Path: p, Demand: topology.GBps(float64(1 + rng.Intn(60)))}
		if rng.Intn(3) == 0 {
			fl.Size = int64(1+rng.Intn(256)) << 10
		}
		if s.fab.AddFlow(fl) == nil && fl.Size == 0 {
			s.flows = append(s.flows, fl)
		}
		return "add"
	case 2:
		if len(s.flows) == 0 {
			return "noop"
		}
		i := rng.Intn(len(s.flows))
		s.fab.RemoveFlow(s.flows[i])
		s.flows = append(s.flows[:i], s.flows[i+1:]...)
		return "remove"
	case 3:
		if len(s.flows) == 0 {
			return "noop"
		}
		_ = s.fab.SetDemand(s.flows[rng.Intn(len(s.flows))], topology.GBps(float64(rng.Intn(80))))
		return "demand"
	case 4:
		l := links[rng.Intn(len(links))]
		if rng.Intn(4) == 0 {
			_ = s.fab.ClearTenantCap(l.ID, tenant())
		} else {
			_ = s.fab.SetTenantCap(l.ID, tenant(), topology.GBps(float64(1+rng.Intn(20))))
		}
		return "cap"
	case 5:
		l := links[rng.Intn(len(links))]
		switch rng.Intn(3) {
		case 0:
			_ = s.fab.FailLink(l.ID)
			return "fail"
		case 1:
			_ = s.fab.DegradeLink(l.ID, rng.Float64()*0.9, simtime.Duration(rng.Intn(800)))
			return "degrade"
		default:
			_ = s.fab.RestoreLink(l.ID)
			return "restore"
		}
	case 6:
		rps := s.topo.ComponentsOfKind(topology.KindRootPort)
		mode := []string{"translate", "off"}[rng.Intn(2)]
		rps[rng.Intn(len(rps))].SetConfig(topology.ConfigIOMMU, mode)
		return "iommu"
	default:
		s.fab.Engine().RunFor(simtime.Duration(rng.Intn(30_000)))
		return "advance"
	}
}

// probe sends a burst of request/response transactions, through kept
// routes on the cached side and the per-send reference on the other,
// and advances until they are delivered.
func (s *hopSide) probe(rng *rand.Rand) {
	devs := txDevices(s.topo)
	for n := 4 + rng.Intn(8); n > 0; n-- {
		src, dst := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
		opts := TxOptions{Tenant: SystemTenant, Src: src, Dst: dst, ReqBytes: 64, RespBytes: 64}
		record := func(r TxRecord) { s.rtts = append(s.rtts, r.RTT) }
		if s.ref {
			_ = s.fab.refSendTransaction(opts, record)
			continue
		}
		key := [2]topology.CompID{src, dst}
		if s.routes[key] == nil {
			rt, err := s.fab.ResolveRoute(src, dst, topology.Path{})
			if err != nil {
				continue
			}
			s.routes[key] = rt
		}
		opts.Route = s.routes[key]
		_ = s.fab.SendTransaction(opts, record)
	}
	s.fab.Engine().RunFor(5 * simtime.Microsecond)
}

// checkHopLatencies compares every link's hop latency with the formula
// recomputed from its current inputs, bit for bit.
func checkHopLatencies(t *testing.T, f *Fabric, step int, when string) {
	t.Helper()
	for _, ls := range f.linkList {
		if got, want := f.hopLatency(ls), refHopLatency(f, ls); got != want {
			t.Fatalf("step %d (%s): link %s hop latency %d, formula gives %d",
				step, when, ls.link.ID, got, want)
		}
	}
}

// TestHopLatencyCacheMatchesFormula drives seeded flow churn, demand
// changes, tenant caps, failures, degradations and restores, IOMMU
// toggles on root ports and advances through a fabric. After each step
// every link's cached hop latency must equal the formula recomputed
// from scratch — both before the pending rate recomputation and after
// it — and the RTTs of a probe burst must equal those of a twin fabric
// that sends through the uncached reference path.
func TestHopLatencyCacheMatchesFormula(t *testing.T) {
	for _, preset := range []string{"two-socket", "dgx-style", "cxl-expanded"} {
		t.Run(preset, func(t *testing.T) {
			got, want := newHopSide(preset, false), newHopSide(preset, true)
			rngGot, rngWant := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			seen := map[string]int{}
			for i := 0; i < 600; i++ {
				op := got.mutate(rngGot)
				want.mutate(rngWant)
				seen[op]++
				checkHopLatencies(t, got.fab, i, "before recompute")
				got.fab.recomputeIfDirty()
				want.fab.recomputeIfDirty()
				checkHopLatencies(t, got.fab, i, "after recompute")
				got.probe(rngGot)
				want.probe(rngWant)
				if !reflect.DeepEqual(got.rtts, want.rtts) {
					t.Fatalf("step %d (%s): RTTs diverge after %d probes", i, op, len(got.rtts))
				}
			}
			for _, op := range []string{"add", "remove", "demand", "cap", "fail", "degrade", "restore", "iommu", "advance"} {
				if seen[op] == 0 {
					t.Fatalf("schedule never applied %q: %v", op, seen)
				}
			}
		})
	}
}
