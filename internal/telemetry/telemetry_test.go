package telemetry

import (
	"testing"
	"testing/quick"

	"repro/internal/counters"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func newFab(t *testing.T) (*fabric.Fabric, *simtime.Engine) {
	t.Helper()
	e := simtime.NewEngine(5)
	topo := topology.MinimalHost()
	fab := fabric.New(topo, e, fabric.Config{PCIeEfficiency: 1})
	p, err := topo.ShortestPath("nic0", "socket0.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.AddFlow(&fabric.Flow{Tenant: "kv", Path: p, Demand: topology.GBps(5)}); err != nil {
		t.Fatal(err)
	}
	if err := fab.AddFlow(&fabric.Flow{Tenant: "ml", Path: p, Demand: topology.GBps(10)}); err != nil {
		t.Fatal(err)
	}
	return fab, e
}

func TestRingStoreBasics(t *testing.T) {
	if _, err := NewRingStore(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	r, _ := NewRingStore(3)
	for i := 0; i < 3; i++ {
		r.Add(Point{At: simtime.Time(i), Link: "l", Metric: MetricBytes, Value: float64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len %d dropped %d", r.Len(), r.Dropped())
	}
	r.Add(Point{At: 3, Link: "l", Metric: MetricBytes, Value: 3})
	if r.Len() != 3 || r.Dropped() != 1 {
		t.Fatalf("after overflow: len %d dropped %d", r.Len(), r.Dropped())
	}
	// Oldest evicted: Since(0) starts at At=1.
	pts := r.Since(0)
	if len(pts) != 3 || pts[0].At != 1 || pts[2].At != 3 {
		t.Fatalf("Since(0) = %+v", pts)
	}
	if got := r.Since(3); len(got) != 1 {
		t.Fatalf("Since(3) = %d points", len(got))
	}
}

func TestRingStoreLatest(t *testing.T) {
	r, _ := NewRingStore(10)
	r.Add(Point{At: 1, Link: "a", Tenant: "t1", Metric: MetricBytes, Value: 10})
	r.Add(Point{At: 2, Link: "a", Tenant: "t2", Metric: MetricBytes, Value: 20})
	r.Add(Point{At: 3, Link: "a", Tenant: "t1", Metric: MetricBytes, Value: 30})
	p, ok := r.Latest("a", MetricBytes, "t1")
	if !ok || p.Value != 30 {
		t.Fatalf("Latest t1 = %+v, %v", p, ok)
	}
	p, ok = r.Latest("a", MetricBytes, "")
	if !ok || p.Value != 30 {
		t.Fatalf("Latest any = %+v, %v", p, ok)
	}
	if _, ok := r.Latest("b", MetricBytes, ""); ok {
		t.Fatal("Latest found absent link")
	}
}

// Property: ring store keeps exactly the most recent min(n, cap)
// points in order.
func TestPropertyRingRetention(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r, _ := NewRingStore(capacity)
		total := int(n)
		for i := 0; i < total; i++ {
			r.Add(Point{At: simtime.Time(i), Value: float64(i)})
		}
		pts := r.Since(0)
		want := total
		if want > capacity {
			want = capacity
		}
		if len(pts) != want {
			return false
		}
		for i, p := range pts {
			if int(p.At) != total-want+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterceptSourceSeesTenants(t *testing.T) {
	fab, e := newFab(t)
	e.RunFor(simtime.Millisecond)
	src := NewInterceptSource(fab)
	if src.Name() != "intercept" {
		t.Fatal("name wrong")
	}
	pts := src.Collect(nil)
	tenants := make(map[fabric.TenantID]bool)
	for _, p := range pts {
		if p.Tenant != "" {
			tenants[p.Tenant] = true
		}
	}
	if !tenants["kv"] || !tenants["ml"] {
		t.Fatalf("intercept source missed tenants: %v", tenants)
	}
}

func TestCounterSourceAggregateOnly(t *testing.T) {
	fab, e := newFab(t)
	bank, err := counters.NewBank(fab, counters.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(simtime.Millisecond)
	src := NewCounterSource(fab, bank)
	pts := src.Collect(nil)
	if len(pts) != fab.Topology().NumLinks() {
		t.Fatalf("counter source %d points, want one per link (%d)", len(pts), fab.Topology().NumLinks())
	}
	for _, p := range pts {
		if p.Tenant != "" {
			t.Fatal("counter source leaked tenant attribution")
		}
	}
	if src.CostPerPoint() >= NewInterceptSource(fab).CostPerPoint() {
		t.Fatal("counters should cost less per point than interception")
	}
}

func TestPipelineValidation(t *testing.T) {
	fab, _ := newFab(t)
	src := NewInterceptSource(fab)
	cases := []PipelineConfig{
		{Period: 0, Placement: PlaceLocal, Collector: "cpu0"},
		{Period: 1, Placement: PlaceLocal, Collector: "nope"},
		{Period: 1, Placement: "weird", Collector: "cpu0"},
		{Period: 1, Placement: PlaceRemote, Collector: "cpu0", RemoteSink: "nope"},
	}
	for i, c := range cases {
		if _, err := NewPipeline(fab, src, c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewPipeline(fab, nil, PipelineConfig{Period: 1, Placement: PlaceLocal, Collector: "cpu0"}); err == nil {
		t.Error("nil source accepted")
	}
}

func TestPipelineCollectsPeriodically(t *testing.T) {
	fab, e := newFab(t)
	pl, err := NewPipeline(fab, NewInterceptSource(fab), PipelineConfig{
		Period: 100 * simtime.Microsecond, Placement: PlaceLocal, Collector: "cpu0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	e.RunFor(simtime.Millisecond)
	o := pl.Overhead()
	if o.Collections != 10 {
		t.Fatalf("collections %d, want 10", o.Collections)
	}
	if o.Points == 0 || o.PointsPerSecond == 0 {
		t.Fatalf("no points collected: %+v", o)
	}
	if o.CPUPerSecond <= 0 {
		t.Fatal("no CPU accounted")
	}
	if o.SpoolRate != 0 {
		t.Fatal("local placement charged spool bandwidth")
	}
	if pl.Store().Len() == 0 {
		t.Fatal("store empty")
	}
	pl.Stop()
	c := pl.Overhead().Collections
	e.RunFor(simtime.Millisecond)
	if pl.Overhead().Collections != c {
		t.Fatal("pipeline collected after Stop")
	}
}

func TestPipelineMemoryPlacementChargesBandwidth(t *testing.T) {
	fab, e := newFab(t)
	pl, err := NewPipeline(fab, NewInterceptSource(fab), PipelineConfig{
		Period: 100 * simtime.Microsecond, Placement: PlaceMemory, Collector: "cpu0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunFor(simtime.Millisecond)
	o := pl.Overhead()
	if o.SpoolRate <= 0 {
		t.Fatalf("memory placement spool rate %v, want > 0", o.SpoolRate)
	}
	// The spool flow appears as system-tenant traffic on memory links.
	found := false
	for _, st := range fab.AllLinkStats() {
		if st.TenantBytes[fabric.SystemTenant] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no system-tenant spool traffic on fabric")
	}
	pl.Stop()
}

func TestPipelineRemotePlacementCostsMore(t *testing.T) {
	fab, e := newFab(t)
	mem, _ := NewPipeline(fab, NewInterceptSource(fab), PipelineConfig{
		Period: 100 * simtime.Microsecond, Placement: PlaceMemory, Collector: "cpu0",
	})
	_ = mem.Start()
	e.RunFor(simtime.Millisecond)
	for _, l := range mem.spool.Path.Links {
		if l.Class == topology.ClassPCIeUp || l.Class == topology.ClassPCIeDown {
			t.Fatal("memory spool should not cross PCIe")
		}
	}
	mem.Stop()

	rem, err := NewPipeline(fab, NewInterceptSource(fab), PipelineConfig{
		Period: 100 * simtime.Microsecond, Placement: PlaceRemote,
		Collector: "cpu0", RemoteSink: "gpu0",
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rem.Start()
	e.RunFor(simtime.Millisecond)
	crossesPCIe := false
	for _, l := range rem.spool.Path.Links {
		if l.Class == topology.ClassPCIeUp || l.Class == topology.ClassPCIeDown {
			crossesPCIe = true
		}
	}
	rem.Stop()
	if !crossesPCIe {
		t.Fatal("remote spool should consume PCIe bandwidth")
	}
}

func TestFasterPeriodMoreOverhead(t *testing.T) {
	fab, e := newFab(t)
	fast, _ := NewPipeline(fab, NewInterceptSource(fab), PipelineConfig{
		Period: 50 * simtime.Microsecond, Placement: PlaceLocal, Collector: "cpu0",
	})
	_ = fast.Start()
	e.RunFor(simtime.Millisecond)
	fastCPU := fast.Overhead().CPUPerSecond
	fast.Stop()

	slow, _ := NewPipeline(fab, NewInterceptSource(fab), PipelineConfig{
		Period: 500 * simtime.Microsecond, Placement: PlaceLocal, Collector: "cpu0",
	})
	_ = slow.Start()
	e.RunFor(simtime.Millisecond)
	slowCPU := slow.Overhead().CPUPerSecond
	slow.Stop()

	if fastCPU <= slowCPU {
		t.Fatalf("10x faster sampling CPU %v not above slower %v", fastCPU, slowCPU)
	}
}

func TestCounterSourceStaleness(t *testing.T) {
	fab, e := newFab(t)
	bank, _ := counters.NewBank(fab, counters.Config{
		SamplePeriod: simtime.Millisecond, Quantum: 64,
	})
	// Collect every 100us against a 1ms-limited bank: most samples
	// will be stale — the Q1 access-frequency limit made visible.
	pl, _ := NewPipeline(fab, NewCounterSource(fab, bank), PipelineConfig{
		Period: 100 * simtime.Microsecond, Placement: PlaceLocal, Collector: "cpu0",
	})
	_ = pl.Start()
	e.RunFor(2 * simtime.Millisecond)
	o := pl.Overhead()
	if o.StaleFraction < 0.5 {
		t.Fatalf("stale fraction %v, want most samples stale", o.StaleFraction)
	}
	pl.Stop()
}
