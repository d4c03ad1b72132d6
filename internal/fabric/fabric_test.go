package fabric

import (
	"math"
	"slices"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// lineTopo builds a -> b -> c with 100 B/s links for arithmetic-friendly
// assertions.
func lineTopo() *topology.Topology {
	t := topology.New("line")
	t.MustAddComponent("a", topology.KindNIC, 0)
	t.MustAddComponent("b", topology.KindPCIeSwitch, 0)
	t.MustAddComponent("c", topology.KindDIMM, 0)
	t.MustAddLink(topology.LinkSpec{A: "a", B: "b", Class: topology.ClassPCIeDown, Capacity: 100, BaseLatency: 10})
	t.MustAddLink(topology.LinkSpec{A: "b", B: "c", Class: topology.ClassIntraSocket, Capacity: 100, BaseLatency: 10})
	return t
}

func newLineFabric() (*Fabric, *simtime.Engine, topology.Path) {
	e := simtime.NewEngine(1)
	topo := lineTopo()
	// PCIeEfficiency 1 so capacities stay exactly 100.
	f := New(topo, e, Config{QueueingFactor: 0, PCIeEfficiency: 1})
	p, err := topo.ShortestPath("a", "c")
	if err != nil {
		panic(err)
	}
	return f, e, p
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowGetsBottleneck(t *testing.T) {
	f, _, p := newLineFabric()
	fl := &Flow{Tenant: "t1", Path: p}
	if err := f.AddFlow(fl); err != nil {
		t.Fatal(err)
	}
	if r := float64(fl.Rate()); !approx(r, 100, 1e-9) {
		t.Fatalf("single flow rate %v, want 100", r)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	f, _, p := newLineFabric()
	f1 := &Flow{Tenant: "t1", Path: p}
	f2 := &Flow{Tenant: "t2", Path: p}
	if err := f.AddFlow(f1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFlow(f2); err != nil {
		t.Fatal(err)
	}
	if r := float64(f1.Rate()); !approx(r, 50, 1e-9) {
		t.Fatalf("f1 rate %v, want 50", r)
	}
	if r := float64(f2.Rate()); !approx(r, 50, 1e-9) {
		t.Fatalf("f2 rate %v, want 50", r)
	}
	f.RemoveFlow(f1)
	if r := float64(f2.Rate()); !approx(r, 100, 1e-9) {
		t.Fatalf("after removal f2 rate %v, want 100", r)
	}
}

func TestWeightedSharing(t *testing.T) {
	f, _, p := newLineFabric()
	f1 := &Flow{Tenant: "t1", Path: p, Weight: 3}
	f2 := &Flow{Tenant: "t2", Path: p, Weight: 1}
	_ = f.AddFlow(f1)
	_ = f.AddFlow(f2)
	if r := float64(f1.Rate()); !approx(r, 75, 1e-9) {
		t.Fatalf("weighted f1 rate %v, want 75", r)
	}
	if r := float64(f2.Rate()); !approx(r, 25, 1e-9) {
		t.Fatalf("weighted f2 rate %v, want 25", r)
	}
}

func TestTenantWeight(t *testing.T) {
	f, _, p := newLineFabric()
	f1 := &Flow{Tenant: "gold", Path: p}
	f2 := &Flow{Tenant: "bronze", Path: p}
	_ = f.AddFlow(f1)
	_ = f.AddFlow(f2)
	if err := f.SetTenantWeight("gold", 4); err != nil {
		t.Fatal(err)
	}
	if r := float64(f1.Rate()); !approx(r, 80, 1e-9) {
		t.Fatalf("gold rate %v, want 80", r)
	}
	if err := f.SetTenantWeight("gold", 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if f.TenantWeight("bronze") != 1 {
		t.Fatal("default weight not 1")
	}
}

func TestDemandLimit(t *testing.T) {
	f, _, p := newLineFabric()
	f1 := &Flow{Tenant: "t1", Path: p, Demand: 20}
	f2 := &Flow{Tenant: "t2", Path: p}
	_ = f.AddFlow(f1)
	_ = f.AddFlow(f2)
	// f1 bottlenecked by demand at 20; f2 takes the rest.
	if r := float64(f1.Rate()); !approx(r, 20, 1e-9) {
		t.Fatalf("f1 rate %v, want 20", r)
	}
	if r := float64(f2.Rate()); !approx(r, 80, 1e-9) {
		t.Fatalf("f2 rate %v, want 80 (max-min, not 50)", r)
	}
	if err := f.SetDemand(f1, 60); err != nil {
		t.Fatal(err)
	}
	if r := float64(f1.Rate()); !approx(r, 50, 1e-9) {
		t.Fatalf("after demand raise f1 rate %v, want 50", r)
	}
}

func TestTenantCapEnforced(t *testing.T) {
	f, _, p := newLineFabric()
	f1 := &Flow{Tenant: "ml", Path: p}
	f2 := &Flow{Tenant: "kv", Path: p}
	_ = f.AddFlow(f1)
	_ = f.AddFlow(f2)
	link := p.Links[0].ID
	if err := f.SetTenantCap(link, "ml", 10); err != nil {
		t.Fatal(err)
	}
	if r := float64(f1.Rate()); !approx(r, 10, 1e-9) {
		t.Fatalf("capped tenant rate %v, want 10", r)
	}
	if r := float64(f2.Rate()); !approx(r, 90, 1e-9) {
		t.Fatalf("uncapped tenant rate %v, want 90", r)
	}
	if err := f.ClearTenantCap(link, "ml"); err != nil {
		t.Fatal(err)
	}
	if r := float64(f1.Rate()); !approx(r, 50, 1e-9) {
		t.Fatalf("after clear rate %v, want 50", r)
	}
}

func TestTenantCapSharedByFlows(t *testing.T) {
	f, _, p := newLineFabric()
	f1 := &Flow{Tenant: "ml", Path: p}
	f2 := &Flow{Tenant: "ml", Path: p}
	_ = f.AddFlow(f1)
	_ = f.AddFlow(f2)
	if err := f.SetTenantCap(p.Links[0].ID, "ml", 40); err != nil {
		t.Fatal(err)
	}
	sum := float64(f1.Rate() + f2.Rate())
	if !approx(sum, 40, 1e-9) {
		t.Fatalf("tenant aggregate %v, want 40", sum)
	}
	if !approx(float64(f1.Rate()), 20, 1e-9) {
		t.Fatalf("intra-tenant share %v, want 20", f1.Rate())
	}
}

func TestCapValidationAndQueries(t *testing.T) {
	f, _, p := newLineFabric()
	link := p.Links[0].ID
	if err := f.SetTenantCap(link, "x", -1); err == nil {
		t.Fatal("negative cap accepted")
	}
	if err := f.SetTenantCap("nope", "x", 1); err == nil {
		t.Fatal("unknown link accepted")
	}
	if err := f.SetTenantCap(link, "x", 30); err != nil {
		t.Fatal(err)
	}
	if c, ok := f.TenantCap(link, "x"); !ok || c != 30 {
		t.Fatalf("TenantCap = %v,%v", c, ok)
	}
	if f.CapCount() != 1 {
		t.Fatalf("CapCount = %d", f.CapCount())
	}
	if got := f.CapsOn(link); len(got) != 1 || got["x"] != 30 {
		t.Fatalf("CapsOn = %v", got)
	}
	f.ClearAllCaps()
	if f.CapCount() != 0 {
		t.Fatal("ClearAllCaps left caps")
	}
}

func TestSizedFlowCompletes(t *testing.T) {
	f, e, p := newLineFabric()
	var doneAt simtime.Time
	fl := &Flow{Tenant: "t1", Path: p, Size: 1000,
		OnComplete: func(at simtime.Time) { doneAt = at }}
	if err := f.AddFlow(fl); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// 1000 bytes at 100 B/s = 10 s.
	want := simtime.Time(10 * simtime.Second)
	if doneAt != want {
		t.Fatalf("completed at %v, want %v", doneAt, want)
	}
	if !fl.Completed() {
		t.Fatal("flow not marked completed")
	}
	if f.Flows() != 0 {
		t.Fatal("completed flow still active")
	}
}

func TestSizedFlowSlowedByContention(t *testing.T) {
	f, e, p := newLineFabric()
	var doneAt simtime.Time
	sized := &Flow{Tenant: "t1", Path: p, Size: 1000,
		OnComplete: func(at simtime.Time) { doneAt = at }}
	_ = f.AddFlow(sized)
	// At t=5s, a competitor arrives, halving the rate.
	var competitor *Flow
	e.Schedule(simtime.Time(5*simtime.Second), func() {
		competitor = &Flow{Tenant: "t2", Path: p}
		_ = f.AddFlow(competitor)
	})
	e.Run()
	// 500 bytes at 100 B/s (5s), then 500 bytes at 50 B/s (10s) = 15s.
	want := simtime.Time(15 * simtime.Second)
	if doneAt != want {
		t.Fatalf("contended completion at %v, want %v", doneAt, want)
	}
	// After completion the competitor gets the full link again.
	if r := float64(competitor.Rate()); !approx(r, 100, 1e-9) {
		t.Fatalf("competitor rate after completion %v, want 100", r)
	}
}

func TestRemainingProgress(t *testing.T) {
	f, e, p := newLineFabric()
	fl := &Flow{Tenant: "t1", Path: p, Size: 1000}
	_ = f.AddFlow(fl)
	e.RunUntil(simtime.Time(4 * simtime.Second))
	if rem := fl.Remaining(); rem != 600 {
		t.Fatalf("remaining after 4s = %d, want 600", rem)
	}
}

func TestFlowValidation(t *testing.T) {
	f, _, p := newLineFabric()
	if err := f.AddFlow(nil); err == nil {
		t.Fatal("nil flow accepted")
	}
	if err := f.AddFlow(&Flow{Tenant: "t"}); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := f.AddFlow(&Flow{Tenant: "t", Path: p, Weight: -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := f.AddFlow(&Flow{Tenant: "t", Path: p, Size: -5}); err == nil {
		t.Fatal("negative size accepted")
	}
	fl := &Flow{Tenant: "t", Path: p}
	if err := f.AddFlow(fl); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFlow(fl); err == nil {
		t.Fatal("double add accepted")
	}
	if err := f.SetDemand(fl, -1); err == nil {
		t.Fatal("negative demand accepted")
	}
	f.RemoveFlow(fl)
	f.RemoveFlow(fl) // idempotent
	if err := f.SetDemand(fl, 1); err == nil {
		t.Fatal("SetDemand on removed flow accepted")
	}
}

func TestFailedLinkZeroesFlows(t *testing.T) {
	f, _, p := newLineFabric()
	fl := &Flow{Tenant: "t1", Path: p}
	_ = f.AddFlow(fl)
	if err := f.FailLink(p.Links[0].ID); err != nil {
		t.Fatal(err)
	}
	if fl.Rate() != 0 {
		t.Fatalf("flow rate on failed link %v, want 0", fl.Rate())
	}
	if !f.LinkFailed(p.Links[0].ID) {
		t.Fatal("LinkFailed false")
	}
	if u, _ := f.Utilization(p.Links[0].ID); u != 1 {
		t.Fatalf("failed link utilization %v, want 1", u)
	}
	if err := f.RestoreLink(p.Links[0].ID); err != nil {
		t.Fatal(err)
	}
	if r := float64(fl.Rate()); !approx(r, 100, 1e-9) {
		t.Fatalf("restored rate %v, want 100", r)
	}
	if len(f.UnhealthyLinks()) != 0 {
		t.Fatal("unhealthy links after restore")
	}
}

func TestDegradeLink(t *testing.T) {
	f, _, p := newLineFabric()
	fl := &Flow{Tenant: "t1", Path: p}
	_ = f.AddFlow(fl)
	link := p.Links[1].ID
	if err := f.DegradeLink(link, 0.5, 100); err != nil {
		t.Fatal(err)
	}
	if r := float64(fl.Rate()); !approx(r, 50, 1e-9) {
		t.Fatalf("degraded rate %v, want 50", r)
	}
	frac, extra := f.LinkDegraded(link)
	if frac != 0.5 || extra != 100 {
		t.Fatalf("LinkDegraded = %v,%v", frac, extra)
	}
	if got := f.UnhealthyLinks(); len(got) != 1 || got[0] != link {
		t.Fatalf("UnhealthyLinks = %v", got)
	}
	if err := f.DegradeLink(link, 1.5, 0); err == nil {
		t.Fatal("degrade fraction >= 1 accepted")
	}
	if err := f.DegradeLink(link, 0.1, -1); err == nil {
		t.Fatal("negative extra latency accepted")
	}
}

func TestPathLatencyInflatesWithLoad(t *testing.T) {
	e := simtime.NewEngine(1)
	topo := lineTopo()
	f := New(topo, e, Config{QueueingFactor: 0.5, MaxInflation: 40, PCIeEfficiency: 1})
	p, _ := topo.ShortestPath("a", "c")
	idle, err := f.PathLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	if idle != 20 {
		t.Fatalf("idle path latency %v, want 20 (sum of bases)", idle)
	}
	// Saturate the path.
	_ = f.AddFlow(&Flow{Tenant: "t", Path: p})
	loaded, err := f.PathLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	if loaded <= idle {
		t.Fatalf("loaded latency %v not above idle %v", loaded, idle)
	}
	if err := f.FailLink(p.Links[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PathLatency(p); err == nil {
		t.Fatal("PathLatency over failed link succeeded")
	}
}

func TestQueueingDisabledAblation(t *testing.T) {
	e := simtime.NewEngine(1)
	topo := lineTopo()
	f := New(topo, e, Config{QueueingFactor: 0, PCIeEfficiency: 1})
	p, _ := topo.ShortestPath("a", "c")
	_ = f.AddFlow(&Flow{Tenant: "t", Path: p})
	lat, _ := f.PathLatency(p)
	if lat != 20 {
		t.Fatalf("latency with queueing disabled %v, want base 20", lat)
	}
}

func TestByteAccounting(t *testing.T) {
	f, e, p := newLineFabric()
	fl := &Flow{Tenant: "t1", Path: p}
	_ = f.AddFlow(fl)
	e.RunFor(simtime.Duration(10 * simtime.Second))
	st, err := f.LinkStatsFor(p.Links[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(st.TotalBytes, 1000, 1) {
		t.Fatalf("10s at 100B/s accounted %v bytes, want 1000", st.TotalBytes)
	}
	if !approx(st.TenantBytes["t1"], 1000, 1) {
		t.Fatalf("tenant bytes %v, want 1000", st.TenantBytes["t1"])
	}
	if st.Flows != 1 || st.Failed {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerTenantAccountingSplit(t *testing.T) {
	f, e, p := newLineFabric()
	_ = f.AddFlow(&Flow{Tenant: "a", Path: p})
	_ = f.AddFlow(&Flow{Tenant: "b", Path: p, Weight: 3})
	e.RunFor(simtime.Duration(8 * simtime.Second))
	st, _ := f.LinkStatsFor(p.Links[0].ID)
	if !approx(st.TenantBytes["a"], 200, 1) || !approx(st.TenantBytes["b"], 600, 1) {
		t.Fatalf("tenant split %v, want a=200 b=600", st.TenantBytes)
	}
}

func TestTenantUsageByClass(t *testing.T) {
	f, _, p := newLineFabric()
	_ = f.AddFlow(&Flow{Tenant: "t", Path: p})
	u := f.TenantUsage("t")
	if !approx(float64(u[topology.ClassPCIeDown]), 100, 1e-9) {
		t.Fatalf("pcie-down usage %v", u[topology.ClassPCIeDown])
	}
	if !approx(float64(u[topology.ClassIntraSocket]), 100, 1e-9) {
		t.Fatalf("intra-socket usage %v", u[topology.ClassIntraSocket])
	}
	if len(f.TenantUsage("nobody")) != 0 {
		t.Fatal("usage for unknown tenant not empty")
	}
}

func TestBusiestLinks(t *testing.T) {
	f, _, p := newLineFabric()
	_ = f.AddFlow(&Flow{Tenant: "t", Path: topology.Path{Links: p.Links[:1]}})
	top := f.BusiestLinks(2)
	if len(top) != 2 {
		t.Fatalf("BusiestLinks returned %d", len(top))
	}
	if top[0].Link != p.Links[0].ID {
		t.Fatalf("busiest = %s", top[0].Link)
	}
	if top[0].Utilization < top[1].Utilization {
		t.Fatal("not sorted by utilization")
	}
}

func TestTenantsList(t *testing.T) {
	f, _, p := newLineFabric()
	_ = f.AddFlow(&Flow{Tenant: "zeta", Path: p})
	_ = f.AddFlow(&Flow{Tenant: "alpha", Path: p})
	ts := f.Tenants()
	if len(ts) != 2 || ts[0] != "alpha" || ts[1] != "zeta" {
		t.Fatalf("Tenants = %v", ts)
	}
}

// TestAppendTenantsOn: the link's flow tenants come back sorted, each
// once, appended after what the buffer already holds; an unknown link
// appends nothing.
func TestAppendTenantsOn(t *testing.T) {
	f, _, p := newLineFabric()
	for _, tn := range []TenantID{"m", "b", "m", "z", "b", "a", "m"} {
		_ = f.AddFlow(&Flow{Tenant: tn, Path: p})
	}
	_ = f.AddFlow(&Flow{Tenant: "q", Path: topology.Path{Links: p.Links[1:]}})
	buf := []TenantID{"kept"}
	got := f.AppendTenantsOn(buf, p.Links[0].ID)
	want := []TenantID{"kept", "a", "b", "m", "z"}
	if !slices.Equal(got, want) {
		t.Fatalf("AppendTenantsOn = %v, want %v", got, want)
	}
	if got := f.AppendTenantsOn(got[:0], p.Links[1].ID); !slices.Equal(got, []TenantID{"a", "b", "m", "q", "z"}) {
		t.Fatalf("second link: %v", got)
	}
	if got := f.AppendTenantsOn(nil, "zz->qq"); len(got) != 0 {
		t.Fatalf("unknown link: %v", got)
	}
}

func TestPCIeEfficiencyDerating(t *testing.T) {
	e := simtime.NewEngine(1)
	topo := lineTopo()
	f := New(topo, e, Config{PCIeEfficiency: 0.8})
	p, _ := topo.ShortestPath("a", "c")
	// a->b is PCIe-down: derated to 80; b->c intra-socket: 100.
	c0, _ := f.EffectiveCapacity(p.Links[0].ID)
	c1, _ := f.EffectiveCapacity(p.Links[1].ID)
	if !approx(float64(c0), 80, 1e-9) || !approx(float64(c1), 100, 1e-9) {
		t.Fatalf("derated capacities %v, %v; want 80, 100", c0, c1)
	}
	fl := &Flow{Tenant: "t", Path: p}
	_ = f.AddFlow(fl)
	if r := float64(fl.Rate()); !approx(r, 80, 1e-9) {
		t.Fatalf("rate %v, want 80 (PCIe bottleneck)", r)
	}
}
