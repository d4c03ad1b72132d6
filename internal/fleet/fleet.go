// Package fleet coordinates the managers of multiple hosts. The
// paper's virtualized intra-host abstraction promises that tenants
// "easily migrate their VMs or containers without reconfiguring their
// own intra-host networks"; this package is the operator-side
// counterpart: least-pressure placement of new tenants across hosts,
// and health-driven evacuation that uses the anomaly platform's
// localization to move exactly the tenants whose pathways cross a
// suspect link. Every host is a recording snap.Session, so each
// mutation — placement, eviction, migration, time advancement through
// the sharded runner — lands in the host's own journal and the host
// stays checkpointable and replayable.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
	"repro/internal/vnet"
)

// Host is one managed machine in the fleet.
type Host struct {
	Name string
	Mgr  *core.Manager
	// Sess is the host's recording session. Fleet operations that
	// mutate the host (admit, evict, time advancement) go through it,
	// so every host stays individually checkpointable and replayable.
	Sess *snap.Session
}

// Replace swaps in sess — a session restored from a checkpoint or
// recovered from a durable store — as the host's state, stops the
// manager it supersedes and closes that manager's event bus, which
// ends any stream still reading it.
func (h *Host) Replace(sess *snap.Session) {
	old := h.Mgr
	h.Sess, h.Mgr = sess, sess.Manager()
	old.Stop()
	old.Obs().Bus.Close()
}

// advanceTo drives the host's clock to t through its session (no-op
// if already there).
func (h *Host) advanceTo(t simtime.Time) error {
	if t <= h.Sess.Now() {
		return nil
	}
	return h.Sess.AdvanceTo(t)
}

// Pressure is the host's reserved fraction of total fabric capacity —
// the placement policy's load signal. The arbiter keeps it current, so
// reading it is O(1).
func (h *Host) Pressure() float64 { return h.Mgr.Arbiter().Pressure() }

// Fleet is a set of hosts under one operator.
type Fleet struct {
	hosts []*Host
	// sorted records whether hosts is currently name-ordered, so the
	// hot paths (epoch loops, roll-ups) do not re-sort 10k names on
	// every call. AddSession invalidates it.
	sorted bool
}

// New returns an empty fleet.
func New() *Fleet { return &Fleet{} }

// subFleet wraps an already name-sorted host slice as a Fleet — the
// shard partitioning path. The slice is owned by the caller and must
// stay name-sorted.
func subFleet(hosts []*Host) *Fleet {
	return &Fleet{hosts: hosts, sorted: true}
}

// AddSession registers a recording host under a unique name:
// mutating fleet operations on it are journaled through the session,
// so it remains checkpointable with internal/snap while under fleet
// management.
func (f *Fleet) AddSession(name string, sess *snap.Session) (*Host, error) {
	if sess == nil {
		return nil, fmt.Errorf("fleet: host %q needs a session", name)
	}
	if name == "" {
		return nil, fmt.Errorf("fleet: host needs a name")
	}
	for _, h := range f.hosts {
		if h.Name == name {
			return nil, fmt.Errorf("fleet: duplicate host %q", name)
		}
	}
	h := &Host{Name: name, Mgr: sess.Manager(), Sess: sess}
	f.hosts = append(f.hosts, h)
	f.sorted = false
	return h, nil
}

// Hosts returns the fleet's hosts sorted by name. The returned slice
// is the caller's.
func (f *Fleet) Hosts() []*Host {
	return append([]*Host(nil), f.hostsSorted()...)
}

// hostsSorted returns the fleet's own host slice, name-sorted in
// place — the allocation-free view for read-only iteration on hot
// paths. Callers must not reorder or retain it.
func (f *Fleet) hostsSorted() []*Host {
	if !f.sorted {
		sort.Slice(f.hosts, func(i, j int) bool { return f.hosts[i].Name < f.hosts[j].Name })
		f.sorted = true
	}
	return f.hosts
}

// Host returns the named host, or nil.
func (f *Fleet) Host(name string) *Host {
	for _, h := range f.hosts {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// ByPressure returns the hosts eligible accepts (every host when
// eligible is nil), least-pressured first with ties broken by name —
// the one ordering behind every automatic placement choice (Place,
// Rebalance, the remediation controller's rebalance). Each host's
// pressure is read once. A runner's Live method is the eligibility
// predicate that keeps quarantined hosts out.
func (f *Fleet) ByPressure(eligible func(*Host) bool) []*Host {
	type ranked struct {
		h *Host
		p float64
	}
	rs := make([]ranked, 0, len(f.hosts))
	for _, h := range f.hostsSorted() {
		if eligible == nil || eligible(h) {
			rs = append(rs, ranked{h, h.Pressure()})
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].p != rs[j].p {
			return rs[i].p < rs[j].p
		}
		return rs[i].h.Name < rs[j].h.Name
	})
	out := make([]*Host, len(rs))
	for i, r := range rs {
		out[i] = r.h
	}
	return out
}

// Place admits a tenant on the least-pressured eligible host that
// accepts it (see ByPressure; nil eligible means every host). It
// returns the view and the chosen host.
func (f *Fleet) Place(tenant fabric.TenantID, targets []intent.Target, eligible func(*Host) bool) (*vnet.View, *Host, error) {
	order := f.ByPressure(eligible)
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("fleet: no eligible hosts")
	}
	var lastErr error
	for _, h := range order {
		view, err := h.Sess.Admit(string(tenant), cloneTargets(targets))
		if err == nil {
			return view, h, nil
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("fleet: no host admitted %q: %w", tenant, lastErr)
}

// Evict releases a tenant wherever it is running in the fleet.
func (f *Fleet) Evict(tenant fabric.TenantID) (*Host, error) {
	h := f.Locate(tenant)
	if h == nil {
		return nil, fmt.Errorf("fleet: unknown tenant %q", tenant)
	}
	return h, h.Sess.Evict(string(tenant))
}

// Migrate re-admits a tenant's intents on the named destination host
// and evicts it from its current host — the reconfiguration-free
// migration the virtual abstraction promises, journaled on both ends.
func (f *Fleet) Migrate(tenant fabric.TenantID, dstName string) (*vnet.View, error) {
	src := f.Locate(tenant)
	if src == nil {
		return nil, fmt.Errorf("fleet: unknown tenant %q", tenant)
	}
	dst := f.Host(dstName)
	if dst == nil {
		return nil, fmt.Errorf("fleet: unknown host %q", dstName)
	}
	if dst == src {
		return nil, fmt.Errorf("fleet: tenant %q is already on %q", tenant, dstName)
	}
	rec := src.Mgr.Tenant(tenant)
	view, err := dst.Sess.Admit(string(tenant), cloneTargets(rec.Targets))
	if err != nil {
		return nil, fmt.Errorf("fleet: destination %q rejected %q: %w", dstName, tenant, err)
	}
	if err := src.Sess.Evict(string(tenant)); err != nil {
		return nil, err
	}
	return view, nil
}

// cloneTargets copies the slice so per-host tenant-field fill-in does
// not alias across admission attempts.
func cloneTargets(targets []intent.Target) []intent.Target {
	out := make([]intent.Target, len(targets))
	copy(out, targets)
	return out
}

// Locate returns the host currently running the tenant, or nil.
func (f *Fleet) Locate(tenant fabric.TenantID) *Host {
	for _, h := range f.Hosts() {
		if h.Mgr.Tenant(tenant) != nil {
			return h
		}
	}
	return nil
}

// AffectedTenants returns the tenants on a host whose assigned
// pathways traverse any of the host's current anomaly suspects (in
// either direction). These are the tenants an incident actually
// touches — evacuation does not need to drain the whole machine.
func AffectedTenants(h *Host) []fabric.TenantID {
	suspect := make(map[topology.LinkID]bool)
	for _, d := range h.Mgr.Anomaly().Detections() {
		for _, s := range d.Suspects {
			suspect[s.Link] = true
		}
	}
	if len(suspect) == 0 {
		return nil
	}
	var out []fabric.TenantID
	for _, rec := range h.Mgr.Tenants() {
		hit := false
		for _, a := range rec.Assignments {
			for _, l := range a.Path.Links {
				if suspect[l.ID] || suspect[l.Reverse] {
					hit = true
				}
			}
		}
		if hit {
			out = append(out, rec.ID)
		}
	}
	return out
}

// EvacuationReport summarizes one rebalancing pass.
type EvacuationReport struct {
	// Moved maps tenant to its destination host name.
	Moved map[fabric.TenantID]string
	// Failed lists tenants no other host would admit (they stay put;
	// the operator gets to decide what degrades).
	Failed []fabric.TenantID
}

// Rebalance migrates, for every host with active anomaly detections,
// the affected tenants to the least-pressured healthy eligible host
// that will take them (see ByPressure; nil eligible means every host).
// Unaffected tenants are never touched.
func (f *Fleet) Rebalance(eligible func(*Host) bool) EvacuationReport {
	rep := EvacuationReport{Moved: make(map[fabric.TenantID]string)}
	unhealthy := make(map[string]bool)
	for _, h := range f.Hosts() {
		if len(h.Mgr.Anomaly().Detections()) > 0 {
			unhealthy[h.Name] = true
		}
	}
	for _, h := range f.Hosts() {
		if !unhealthy[h.Name] {
			continue
		}
		for _, tenant := range AffectedTenants(h) {
			moved := false
			for _, dst := range f.ByPressure(eligible) {
				if dst.Name == h.Name || unhealthy[dst.Name] {
					continue
				}
				if _, err := f.Migrate(tenant, dst.Name); err == nil {
					rep.Moved[tenant] = dst.Name
					moved = true
					break
				}
			}
			if !moved {
				rep.Failed = append(rep.Failed, tenant)
			}
		}
	}
	return rep
}
