package httpapi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// The fleet table's handlers: operations over every host of the fleet.

func (s *Server) getHosts(*http.Request) ([]api.FleetHost, error) {
	failed := s.runner.Failed()
	hosts := s.fleet.Hosts()
	out := make([]api.FleetHost, 0, len(hosts))
	for _, h := range hosts {
		d := api.FleetHost{
			Name:          h.Name,
			VirtualTimeNs: int64(h.Mgr.Engine().Now()),
			Pressure:      h.Pressure(),
			Tenants:       len(h.Mgr.Tenants()),
			Detections:    len(h.Mgr.Anomaly().Detections()),
		}
		if err := failed[h.Name]; err != nil {
			d.Quarantined = err.Error()
		}
		out = append(out, d)
	}
	return out, nil
}

func (s *Server) getFleetReport(r *http.Request) (api.FleetReport, error) {
	hosts, _ := s.getHosts(r)
	out := api.FleetReport{
		VirtualTimeNs: int64(s.runner.Now()),
		Workers:       s.runner.Workers(),
		Shards:        s.runner.Shards(),
		EpochNs:       int64(s.runner.Epoch()),
		Hosts:         hosts,
		Tenants:       []api.FleetTenant{},
	}
	for _, h := range s.fleet.Hosts() {
		for _, rec := range h.Mgr.Tenants() {
			out.Tenants = append(out.Tenants, api.FleetTenant{ID: string(rec.ID), Host: h.Name})
		}
	}
	return out, nil
}

// postFleetAdvance advances all live hosts to a shared barrier, in
// epochs of the engine's barrier interval. The request context flows
// into the runner: a client that disconnects aborts the run at the
// next epoch barrier — the fleet is never left mid-epoch — and gets
// the 499 envelope. Epoch advances coalesce in each host's journal,
// so replay semantics do not depend on the epoch size.
func (s *Server) postFleetAdvance(r *http.Request) (api.Advanced, error) {
	var req api.Advance
	if err := decodeBody(r, &req); err != nil {
		return api.Advanced{}, err
	}
	if req.Micros <= 0 || req.Micros > 10_000_000 {
		return api.Advanced{}, fail(http.StatusBadRequest, fmt.Errorf("micros must be in (0, 1e7]"))
	}
	rep, err := s.runner.RunFor(r.Context(), simtime.Duration(req.Micros)*simtime.Microsecond)
	if rep.Aborted {
		return api.Advanced{}, fail(StatusClientClosedRequest, err)
	}
	out := api.Advanced{
		VirtualTimeNs: int64(s.runner.Now()),
		Epochs:        rep.Epochs,
		OuterEpochs:   rep.OuterEpochs,
		HostsAdvanced: rep.HostsAdvanced,
		Failed:        make(map[string]string, len(rep.Failed)),
	}
	for name, ferr := range rep.Failed {
		out.Failed[name] = ferr.Error()
	}
	return out, nil
}

// postPlace admits a tenant on the least-pressured live host that
// accepts it — the fleet-level counterpart of a host's POST /tenants.
// Quarantined hosts are never candidates.
func (s *Server) postPlace(r *http.Request) (api.TenantView, error) {
	var req api.Admit
	if err := decodeBody(r, &req); err != nil {
		return api.TenantView{}, err
	}
	view, host, err := s.fleet.Place(fabric.TenantID(req.Tenant), intentTargets(req), s.runner.Live)
	if err != nil {
		return api.TenantView{}, fail(http.StatusConflict, err)
	}
	s.runner.MarkDirty(host.Name)
	return tenantView(view.Tenant, host.Name, view.Reservation.Links), nil
}

// deleteFleetTenant evicts a tenant wherever it runs.
func (s *Server) deleteFleetTenant(r *http.Request) (api.Evicted, error) {
	id := fabric.TenantID(r.PathValue("id"))
	host, err := s.fleet.Evict(id)
	if err != nil {
		return api.Evicted{}, fail(http.StatusNotFound, err)
	}
	s.runner.MarkDirty(host.Name)
	return api.Evicted{Evicted: string(id), Host: host.Name}, nil
}

// postMigrate re-admits the tenant on the named destination and evicts
// it from its current host — the reconfiguration-free migration the
// paper's virtual abstraction promises.
func (s *Server) postMigrate(r *http.Request) (api.TenantView, error) {
	id := fabric.TenantID(r.PathValue("id"))
	var req api.Migrate
	if err := decodeBody(r, &req); err != nil {
		return api.TenantView{}, err
	}
	if req.Host == "" {
		return api.TenantView{}, fail(http.StatusBadRequest, fmt.Errorf("migrate needs a destination host"))
	}
	src := s.fleet.Locate(id)
	view, err := s.fleet.Migrate(id, req.Host)
	if err != nil {
		return api.TenantView{}, fail(http.StatusConflict, err)
	}
	if src != nil {
		s.runner.MarkDirty(src.Name)
	}
	s.runner.MarkDirty(req.Host)
	return tenantView(view.Tenant, req.Host, view.Reservation.Links), nil
}

func (s *Server) postRebalance(*http.Request) (api.Rebalanced, error) {
	rep := s.fleet.Rebalance(s.runner.Live)
	s.runner.MarkAllDirty()
	out := api.Rebalanced{
		Moved:  make(map[string]string, len(rep.Moved)),
		Failed: make([]string, 0, len(rep.Failed)),
	}
	for tenant, host := range rep.Moved {
		out.Moved[string(tenant)] = host
	}
	for _, tenant := range rep.Failed {
		out.Failed = append(out.Failed, string(tenant))
	}
	return out, nil
}

// getFleetStateHash folds every host's state hash — in host-name order,
// so the digest is stable regardless of placement history — into one
// fleet fingerprint. Two fleets with the same fingerprint are
// byte-identical host by host; the kill/restart e2e compares exactly
// this.
func (s *Server) getFleetStateHash(*http.Request) (api.FleetStateHash, error) {
	hosts := s.fleet.Hosts() // name-sorted
	out := api.FleetStateHash{
		Hosts:         len(hosts),
		VirtualTimeNs: int64(s.runner.Now()),
		HostHashes:    make(map[string]string, len(hosts)),
	}
	digest := sha256.New()
	for _, h := range hosts {
		hash := snap.StateHash(h.Mgr)
		out.HostHashes[h.Name] = hash
		fmt.Fprintf(digest, "%s=%s\n", h.Name, hash)
	}
	out.FleetHash = "sha256:" + hex.EncodeToString(digest.Sum(nil))
	// Hashing exports state, which settles accounting metrics.
	s.runner.MarkAllDirty()
	return out, nil
}

// getFleetRollup serves the merged fleet snapshot as JSON: counters
// summed, gauges last-write-wins with source tags, histograms merged
// bucket-wise with quantile error bounds preserved. The fold is
// hierarchical and cached: only shards that advanced or mutated since
// the last scrape are refolded, so back-to-back scrapes of an idle
// fleet never touch a host registry (see rollup_cache_hits/misses on
// GET /fleet/shards).
func (s *Server) getFleetRollup(*http.Request) (obs.Snapshot, error) {
	return s.rollup(), nil
}

// getFleetShards reports the sharded engine's topology and health:
// per-shard host counts, clocks, epoch/advance counters, quarantines,
// and the roll-up cache's hit/miss/refold accounting.
func (s *Server) getFleetShards(*http.Request) (fleet.ShardStats, error) {
	return s.runner.Stats(), nil
}

// getFleetEvents streams the fleet fan-in bus — every host's events,
// tagged with the originating host, plus the runner's epoch barriers —
// as server-sent events.
func (s *Server) getFleetEvents(w http.ResponseWriter, r *http.Request, _ *fleet.Host) {
	streamSSE(w, r, s.runner.Bus())
}
