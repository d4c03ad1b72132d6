package vnet

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/resmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func TestBuildView(t *testing.T) {
	topo := topology.TwoSocketServer()
	p, err := topo.ShortestPath("gpu0", "nic0")
	if err != nil {
		t.Fatal(err)
	}
	res := resmodel.NewReservation()
	res.AddPipe(p, topology.GBps(16))
	v, err := Build(topo, "kv", res)
	if err != nil {
		t.Fatal(err)
	}
	if v.HostName != "two-socket" || v.Physical != topo {
		t.Fatalf("host %q, physical %p, want two-socket, %p", v.HostName, v.Physical, topo)
	}
	// Guaranteed links show the allocation as capacity.
	for _, l := range p.Links {
		if !v.Guaranteed(l.ID) {
			t.Fatalf("link %s not marked guaranteed", l.ID)
		}
		c, err := v.Capacity(l.ID)
		if err != nil {
			t.Fatal(err)
		}
		if c != topology.GBps(16) {
			t.Fatalf("virtual capacity %v, want 16GB/s", c)
		}
	}
	// The tenant's illusion: the path bottleneck is its allocation.
	vp, err := v.Physical.ShortestPath("gpu0", "nic0")
	if err != nil {
		t.Fatal(err)
	}
	if v.PathCapacity(vp) != topology.GBps(16) {
		t.Fatalf("virtual path capacity %v", v.PathCapacity(vp))
	}
	// Unreserved links keep physical capacity and are best-effort.
	other, _ := topo.ShortestPath("gpu1", "nic1")
	if v.Guaranteed(other.Links[0].ID) {
		t.Fatal("unreserved link marked guaranteed")
	}
	c, _ := v.Capacity(other.Links[0].ID)
	if c != other.Links[0].Capacity {
		t.Fatalf("unreserved virtual capacity %v != physical %v", c, other.Links[0].Capacity)
	}
}

// TestBuildDoesNotAliasPhysical: a view reads the physical topology
// and never writes it, and its Capacity answers what a per-tenant copy
// of the topology, with guaranteed links set to the allocation, would:
// the reservation's rate where there is one (zero included), the
// physical capacity elsewhere.
func TestBuildDoesNotAliasPhysical(t *testing.T) {
	topo := topology.TwoSocketServer()
	before := make(map[topology.LinkID]topology.Rate)
	for _, l := range topo.Links() {
		before[l.ID] = l.Capacity
	}
	p, _ := topo.ShortestPath("gpu0", "nic0")
	q, _ := topo.ShortestPath("nic1", "socket1.dimm1_0")
	kvRes := resmodel.NewReservation()
	kvRes.AddPipe(p, topology.GBps(3))
	kvRes.Add(q.Links[0].ID, 0)
	mlRes := resmodel.NewReservation()
	mlRes.AddPipe(p, topology.GBps(7))
	kv, err := Build(topo, "kv", kvRes)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Build(topo, "ml", mlRes)
	if err != nil {
		t.Fatal(err)
	}
	// The caller's reservation stays the caller's.
	kvRes.Add(p.Links[0].ID, topology.GBps(100))
	for _, v := range []*View{kv, ml} {
		res := mlRes
		if v == kv {
			res = resmodel.NewReservation()
			res.AddPipe(p, topology.GBps(3))
			res.Add(q.Links[0].ID, 0)
		}
		for _, l := range topo.Links() {
			want := before[l.ID]
			if r, ok := res.Links[l.ID]; ok {
				want = r
			}
			got, err := v.Capacity(l.ID)
			if err != nil || got != want {
				t.Fatalf("%s: Capacity(%s) = %v, %v; want %v", v.Tenant, l.ID, got, err, want)
			}
		}
		v.PathCapacity(p)
		v.PathCapacity(q)
	}
	for _, l := range topo.Links() {
		if l.Capacity != before[l.ID] {
			t.Fatalf("a view changed physical %s: %v, was %v", l.ID, l.Capacity, before[l.ID])
		}
	}
}

func TestUsageReportTenantScoped(t *testing.T) {
	topo := topology.TwoSocketServer()
	e := simtime.NewEngine(1)
	fab := fabric.New(topo, e, fabric.Config{PCIeEfficiency: 1})
	p, _ := topo.ShortestPath("gpu0", "nic0")
	res := resmodel.NewReservation()
	res.AddPipe(p, topology.GBps(10))
	v, err := Build(topo, "kv", res)
	if err != nil {
		t.Fatal(err)
	}
	// kv uses 5 GB/s of its 10; a neighbor floods the same links.
	_ = fab.AddFlow(&fabric.Flow{Tenant: "kv", Path: p, Demand: topology.GBps(5)})
	_ = fab.AddFlow(&fabric.Flow{Tenant: "noisy", Path: p})
	e.RunFor(1000)
	rep := v.UsageReport(fab)
	if len(rep) != p.Hops() {
		t.Fatalf("report covers %d links, want %d", len(rep), p.Hops())
	}
	for _, lu := range rep {
		if lu.Allocated != topology.GBps(10) {
			t.Fatalf("allocation %v", lu.Allocated)
		}
		if lu.Used != topology.GBps(5) {
			t.Fatalf("used %v, want kv's own 5GB/s only", lu.Used)
		}
		if lu.Utilization != 0.5 {
			t.Fatalf("virtual utilization %v, want 0.5", lu.Utilization)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	topo := topology.MinimalHost()
	if _, err := Build(topo, "", resmodel.NewReservation()); err == nil {
		t.Fatal("empty tenant accepted")
	}
	bad := resmodel.NewReservation()
	bad.Add("zz->qq", 1)
	if _, err := Build(topo, "kv", bad); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := (&View{Physical: topo}).Capacity("zz->qq"); err == nil {
		t.Fatal("unknown link capacity query accepted")
	}
}
