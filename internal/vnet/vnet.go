// Package vnet provides the virtualized intra-host network abstraction
// of §3.2: each tenant sees an independent virtual view of the host in
// which the capacity of every link it holds a guarantee on *is* its
// allocation — "if a tenant is only allocated half of the PCIe
// bandwidth ... it should see an illusion that the allocated bandwidth
// is the corresponding PCIe capacity." Links without a guarantee
// appear at physical capacity but are marked best-effort.
package vnet

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/resmodel"
	"repro/internal/topology"
)

// View is one tenant's virtual intra-host network.
type View struct {
	Tenant fabric.TenantID
	// Topo is the virtual topology: same shape as the physical host,
	// with guaranteed links' capacities replaced by the allocation.
	Topo *topology.Topology
	// Reservation is the tenant's per-link allocation.
	Reservation resmodel.Reservation
	// HostName records which physical host preset the view derives
	// from (changes transparently on migration).
	HostName string
}

// Build derives a tenant's view from the physical topology and its
// reservation.
func Build(physical *topology.Topology, tenant fabric.TenantID, res resmodel.Reservation) (*View, error) {
	if tenant == "" {
		return nil, fmt.Errorf("vnet: empty tenant")
	}
	vt := physical.Clone()
	vt.Name = string(tenant) + "@" + physical.Name
	for l, r := range res.Links {
		vl := vt.Link(l)
		if vl == nil {
			return nil, fmt.Errorf("vnet: reservation references unknown link %q", l)
		}
		vl.Capacity = r
	}
	return &View{
		Tenant:      tenant,
		Topo:        vt,
		Reservation: res.Clone(),
		HostName:    physical.Name,
	}, nil
}

// Guaranteed reports whether the tenant holds a guarantee on the given
// directed link (false means best-effort sharing).
func (v *View) Guaranteed(link topology.LinkID) bool {
	_, ok := v.Reservation.Links[link]
	return ok
}

// Capacity returns the capacity the tenant perceives on a link: its
// allocation where guaranteed, physical capacity otherwise.
func (v *View) Capacity(link topology.LinkID) (topology.Rate, error) {
	l := v.Topo.Link(link)
	if l == nil {
		return 0, fmt.Errorf("vnet: unknown link %q", link)
	}
	return l.Capacity, nil
}

// PathCapacity returns the perceived bottleneck capacity along a path
// in the virtual view — what the tenant should expect an ihdiag perf run to
// report when its guarantees are enforced.
func (v *View) PathCapacity(p topology.Path) topology.Rate {
	var min topology.Rate
	for i, l := range p.Links {
		c, err := v.Capacity(l.ID)
		if err != nil {
			return 0
		}
		if i == 0 || c < min {
			min = c
		}
	}
	return min
}

// LinkUsage is one guaranteed link's tenant-scoped utilization.
type LinkUsage struct {
	Link topology.LinkID
	// Allocated is the tenant's guarantee on the link.
	Allocated topology.Rate
	// Used is the tenant's own current rate there.
	Used topology.Rate
	// Utilization is Used/Allocated — utilization *of the virtual
	// link*, which is all the tenant is entitled to see.
	Utilization float64
}

// UsageReport returns the tenant-scoped view of its guaranteed links:
// its own consumption against its own allocation, and nothing about
// other tenants — the monitoring counterpart of the isolation
// abstraction (a tenant must not observe its neighbors through shared
// counters). Links are in sorted order.
func (v *View) UsageReport(fab *fabric.Fabric) []LinkUsage {
	out := make([]LinkUsage, 0, len(v.Reservation.Links))
	for _, id := range v.Reservation.LinkIDs() {
		alloc := v.Reservation.Links[id]
		used := fab.TenantRateOn(id, v.Tenant)
		u := LinkUsage{Link: id, Allocated: alloc, Used: used}
		if alloc > 0 {
			u.Utilization = float64(used) / float64(alloc)
		}
		out = append(out, u)
	}
	return out
}
