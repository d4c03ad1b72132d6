package fabric

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// LinkStats is a settled snapshot of one directed link's state. This
// is the ground truth the telemetry sources sample (with their own
// fidelity limits layered on top).
type LinkStats struct {
	Link        topology.LinkID
	Class       topology.LinkClass
	Capacity    topology.Rate // effective, after derating/degradation
	CurrentRate topology.Rate // sum of allocated flow rates
	Utilization float64
	TotalBytes  float64
	TenantBytes map[TenantID]float64
	Flows       int
	Failed      bool
}

// linkStats builds the snapshot of one link, projecting byte counters
// to now without mutating them (reads must not perturb the
// accumulators' fold boundaries; see projectLinkBytes).
func (f *Fabric) linkStats(ls *linkState, now simtime.Time) LinkStats {
	total, tb := f.projectLinkBytes(ls, now)
	return LinkStats{
		Link:        ls.link.ID,
		Class:       ls.link.Class,
		Capacity:    ls.capacity,
		CurrentRate: ls.currentRate,
		Utilization: ls.utilization(),
		TotalBytes:  total,
		TenantBytes: tb,
		Flows:       len(ls.flows),
		Failed:      ls.failed,
	}
}

// utilization is the link's allocated share of its effective
// capacity, clamped to 1; a failed link reads 1.
func (ls *linkState) utilization() float64 {
	if ls.failed {
		return 1
	}
	if ls.capacity <= 0 {
		return 0
	}
	return min(float64(ls.currentRate)/float64(ls.capacity), 1)
}

// LinkStatsFor returns a settled snapshot of one link.
func (f *Fabric) LinkStatsFor(id topology.LinkID) (LinkStats, error) {
	ls, err := f.state(id)
	if err != nil {
		return LinkStats{}, err
	}
	f.recomputeIfDirty()
	return f.linkStats(ls, f.engine.Now()), nil
}

// AllLinkStats returns settled snapshots of every link, ordered by ID.
func (f *Fabric) AllLinkStats() []LinkStats {
	f.recomputeIfDirty()
	now := f.engine.Now()
	out := make([]LinkStats, 0, len(f.linkList))
	for _, ls := range f.linkList {
		out = append(out, f.linkStats(ls, now))
	}
	return out
}

// LinkIDs returns every directed link's ID in the order AllLinkStats
// and AppendUtilizations report them. The slice is the caller's.
func (f *Fabric) LinkIDs() []topology.LinkID {
	out := make([]topology.LinkID, len(f.linkList))
	for i, ls := range f.linkList {
		out[i] = ls.link.ID
	}
	return out
}

// AppendUtilizations appends every link's settled utilization, in
// LinkIDs order, to dst and returns the extended slice: the one field
// of AllLinkStats a watermark sweep reads, without building the
// per-tenant byte maps. A caller that passes its own buffer back in
// reads the fabric without allocating.
func (f *Fabric) AppendUtilizations(dst []float64) []float64 {
	f.recomputeIfDirty()
	for _, ls := range f.linkList {
		dst = append(dst, ls.utilization())
	}
	return dst
}

// TenantBytes is one tenant's cumulative bytes on one link.
type TenantBytes struct {
	Tenant TenantID
	Bytes  float64
}

// EachLinkBytes calls fn for every link, in LinkIDs order, with its
// settled utilization and its per-tenant cumulative bytes projected to
// now, sorted by tenant: the Utilization and TenantBytes of
// AllLinkStats, bit for bit, without building a map per link. tenants
// is a buffer the fabric reuses; fn must not keep it, and must not
// change the fabric.
func (f *Fabric) EachLinkBytes(fn func(link topology.LinkID, util float64, tenants []TenantBytes)) {
	f.recomputeIfDirty()
	now := f.engine.Now()
	if n := len(f.tenantList); len(f.projAcc) < n {
		f.projAcc = make([]float64, n)
		f.projSeen = make([]bool, n)
	}
	acc, seen := f.projAcc, f.projSeen
	for _, ls := range f.linkList {
		// Same sums in the same order as projectLinkBytes: each
		// tenant starts from its settled bytes and adds its flows'
		// unsettled bytes in flow-ID order.
		touched := f.projTouched[:0]
		for slot, b := range ls.tenantBytes {
			if b != 0 {
				acc[slot], seen[slot] = b, true
				touched = append(touched, int32(slot))
			}
		}
		if dt := now.Sub(ls.lastUpdate).Seconds(); dt > 0 {
			for _, sl := range ls.memSlots {
				t := f.slotTenant[sl]
				if !seen[t] {
					acc[t], seen[t] = 0, true
					touched = append(touched, t)
				}
				acc[t] += f.slotRate[sl] * dt
			}
		}
		tb := f.projBytes[:0]
		for _, t := range touched {
			tb = append(tb, TenantBytes{Tenant: f.tenantList[t], Bytes: acc[t]})
			seen[t] = false
		}
		slices.SortFunc(tb, func(a, b TenantBytes) int { return strings.Compare(string(a.Tenant), string(b.Tenant)) })
		f.projTouched, f.projBytes = touched, tb
		fn(ls.link.ID, ls.utilization(), tb)
	}
}

// FlowStats is a settled snapshot of one active flow — the fabric's
// half of the state-capture contract with internal/snap: everything
// externally observable about a flow, without its OnComplete closure
// (closures are why snapshots restore by replay, not by decoding).
type FlowStats struct {
	ID     FlowID
	Tenant TenantID
	// Links is the flow's path as directed link IDs, in hop order.
	Links []topology.LinkID
	// Demand and Rate are the offered and currently allocated rates.
	Demand topology.Rate
	Rate   topology.Rate
	Weight float64
	// SizeBytes is zero for persistent flows; RemainingBytes is the
	// ceiling of the bytes left for sized flows.
	SizeBytes      int64
	RemainingBytes int64
	Started        simtime.Time
}

// AllFlowStats returns settled snapshots of every active flow, ordered
// by flow ID (flowList order).
func (f *Fabric) AllFlowStats() []FlowStats {
	f.recomputeIfDirty()
	now := f.engine.Now()
	out := make([]FlowStats, 0, len(f.flowList))
	for _, fl := range f.flowList {
		links := make([]topology.LinkID, 0, len(fl.Path.Links))
		for _, l := range fl.Path.Links {
			links = append(links, l.ID)
		}
		out = append(out, FlowStats{
			ID: fl.ID, Tenant: fl.Tenant, Links: links,
			Demand: fl.Demand, Rate: topology.Rate(f.slotRate[fl.slot]), Weight: fl.Weight,
			SizeBytes:      fl.Size,
			RemainingBytes: int64(math.Ceil(fl.projectRemaining(now))),
			Started:        fl.started,
		})
	}
	return out
}

// TenantWeights returns every explicitly set tenant weight, for state
// export. Tenants without an entry implicitly weigh 1.
func (f *Fabric) TenantWeights() map[TenantID]float64 {
	out := make(map[TenantID]float64, len(f.tenantWeight))
	for t, w := range f.tenantWeight {
		out[t] = w
	}
	return out
}

// TenantUsage sums a tenant's current allocated rate per link class —
// the per-tenant usage statistics the paper's monitor must expose.
func (f *Fabric) TenantUsage(t TenantID) map[topology.LinkClass]topology.Rate {
	f.recomputeIfDirty()
	out := make(map[topology.LinkClass]topology.Rate)
	// flowList order: the per-class sums are float accumulations, so
	// iteration order must be deterministic.
	for _, fl := range f.flowList {
		if fl.Tenant != t {
			continue
		}
		seen := make(map[topology.LinkClass]bool)
		for _, l := range fl.Path.Links {
			if !seen[l.Class] {
				seen[l.Class] = true
				out[l.Class] += topology.Rate(f.slotRate[fl.slot])
			}
		}
	}
	return out
}

// AppendTenantsOn appends to dst the tenants with at least one
// active flow crossing the given directed link, sorted and each once,
// and returns the extended slice. A caller that passes its own buffer
// back in reads the link without allocating.
func (f *Fabric) AppendTenantsOn(dst []TenantID, link topology.LinkID) []TenantID {
	ls, err := f.state(link)
	if err != nil {
		return dst
	}
	start := len(dst)
	for _, fl := range ls.flows {
		if len(dst) == start || dst[len(dst)-1] != fl.Tenant {
			dst = append(dst, fl.Tenant)
		}
	}
	added := dst[start:]
	slices.Sort(added)
	return dst[:start+len(slices.Compact(added))]
}

// TenantRateOn returns a tenant's current aggregate allocated rate on
// one directed link.
func (f *Fabric) TenantRateOn(link topology.LinkID, tenant TenantID) topology.Rate {
	ls, err := f.state(link)
	if err != nil {
		return 0
	}
	f.recomputeIfDirty()
	var sum topology.Rate
	for _, fl := range ls.flows {
		if fl.Tenant == tenant {
			sum += topology.Rate(f.slotRate[fl.slot])
		}
	}
	return sum
}

// BusiestLinks returns the n highest-utilization links, ties broken by
// link ID, most utilized first.
func (f *Fabric) BusiestLinks(n int) []LinkStats {
	all := f.AllLinkStats()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Utilization != all[j].Utilization {
			return all[i].Utilization > all[j].Utilization
		}
		return all[i].Link < all[j].Link
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
