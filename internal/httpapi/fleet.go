package httpapi

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// The fleet table's handlers: operations over every host of the fleet.

type fleetHostDTO struct {
	Name          string  `json:"name"`
	VirtualTimeNs int64   `json:"virtual_time_ns"`
	Pressure      float64 `json:"pressure"`
	Tenants       int     `json:"tenants"`
	Detections    int     `json:"detections"`
	Quarantined   string  `json:"quarantined,omitempty"`
}

func (s *Server) hostDTOs() []fleetHostDTO {
	failed := s.runner.Failed()
	hosts := s.fleet.Hosts()
	out := make([]fleetHostDTO, 0, len(hosts))
	for _, h := range hosts {
		d := fleetHostDTO{
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
	return out
}

func (s *Server) getHosts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.hostDTOs())
}

func (s *Server) getFleetReport(w http.ResponseWriter, _ *http.Request) {
	type tenantDTO struct {
		ID   string `json:"id"`
		Host string `json:"host"`
	}
	tenants := []tenantDTO{}
	for _, h := range s.fleet.Hosts() {
		for _, rec := range h.Mgr.Tenants() {
			tenants = append(tenants, tenantDTO{ID: string(rec.ID), Host: h.Name})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"virtual_time_ns": int64(s.runner.Now()),
		"workers":         s.runner.Workers(),
		"shards":          s.runner.Shards(),
		"epoch_ns":        int64(s.runner.Epoch()),
		"hosts":           s.hostDTOs(),
		"tenants":         tenants,
	})
}

// postFleetAdvance advances all live hosts to a shared barrier, in
// epochs of the engine's barrier interval. The request context flows
// into the runner: a client that disconnects aborts the run at the
// next epoch barrier — the fleet is never left mid-epoch — and gets
// the 499 envelope. Epoch advances coalesce in each host's journal,
// so replay semantics do not depend on the epoch size.
func (s *Server) postFleetAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Micros int64 `json:"micros"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Micros <= 0 || req.Micros > 10_000_000 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("micros must be in (0, 1e7]"))
		return
	}
	rep, err := s.runner.RunFor(r.Context(), simtime.Duration(req.Micros)*simtime.Microsecond)
	if rep.Aborted {
		writeErr(w, StatusClientClosedRequest, err)
		return
	}
	failed := make(map[string]string, len(rep.Failed))
	for name, ferr := range rep.Failed {
		failed[name] = ferr.Error()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"virtual_time_ns": int64(s.runner.Now()),
		"epochs":          rep.Epochs,
		"outer_epochs":    rep.OuterEpochs,
		"hosts_advanced":  rep.HostsAdvanced,
		"failed":          failed,
	})
}

// postPlace admits a tenant on the least-pressured host that accepts
// it — the fleet-level counterpart of a host's POST /tenants.
func (s *Server) postPlace(w http.ResponseWriter, r *http.Request) {
	var req admitDTO
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	view, host, err := s.fleet.Place(fabric.TenantID(req.Tenant), req.intentTargets())
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.runner.MarkDirty(host.Name)
	writeJSON(w, http.StatusCreated, newViewDTO(view.Tenant, host.Name, view.Reservation.Links))
}

// deleteFleetTenant evicts a tenant wherever it runs.
func (s *Server) deleteFleetTenant(w http.ResponseWriter, r *http.Request) {
	id := fabric.TenantID(r.PathValue("id"))
	host, err := s.fleet.Evict(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.runner.MarkDirty(host.Name)
	writeJSON(w, http.StatusOK, map[string]string{
		"evicted": string(id), "host": host.Name,
	})
}

// postMigrate re-admits the tenant on the named destination and evicts
// it from its current host — the reconfiguration-free migration the
// paper's virtual abstraction promises.
func (s *Server) postMigrate(w http.ResponseWriter, r *http.Request) {
	id := fabric.TenantID(r.PathValue("id"))
	var req struct {
		Host string `json:"host"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Host == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("migrate needs a destination host"))
		return
	}
	src := s.fleet.Locate(id)
	view, err := s.fleet.Migrate(id, req.Host)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if src != nil {
		s.runner.MarkDirty(src.Name)
	}
	s.runner.MarkDirty(req.Host)
	writeJSON(w, http.StatusOK, newViewDTO(view.Tenant, req.Host, view.Reservation.Links))
}

func (s *Server) postRebalance(w http.ResponseWriter, _ *http.Request) {
	rep := s.fleet.Rebalance()
	s.runner.MarkAllDirty()
	moved := make(map[string]string, len(rep.Moved))
	for tenant, host := range rep.Moved {
		moved[string(tenant)] = host
	}
	failed := make([]string, 0, len(rep.Failed))
	for _, tenant := range rep.Failed {
		failed = append(failed, string(tenant))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"moved": moved, "failed": failed,
	})
}

// getFleetStateHash folds every host's state hash — in host-name order,
// so the digest is stable regardless of placement history — into one
// fleet fingerprint. Two fleets with the same fingerprint are
// byte-identical host by host; the kill/restart e2e compares exactly
// this.
func (s *Server) getFleetStateHash(w http.ResponseWriter, _ *http.Request) {
	hosts := s.fleet.Hosts() // name-sorted
	perHost := make(map[string]string, len(hosts))
	digest := sha256.New()
	for _, h := range hosts {
		hash := snap.StateHash(h.Mgr)
		perHost[h.Name] = hash
		fmt.Fprintf(digest, "%s=%s\n", h.Name, hash)
	}
	// Hashing exports state, which settles accounting metrics.
	s.runner.MarkAllDirty()
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet_hash":      "sha256:" + hex.EncodeToString(digest.Sum(nil)),
		"hosts":           len(hosts),
		"virtual_time_ns": int64(s.runner.Now()),
		"host_hashes":     perHost,
	})
}

// getFleetRollup serves the merged fleet snapshot as JSON: counters
// summed, gauges last-write-wins with source tags, histograms merged
// bucket-wise with quantile error bounds preserved. The fold is
// hierarchical and cached: only shards that advanced or mutated since
// the last scrape are refolded, so back-to-back scrapes of an idle
// fleet never touch a host registry (see rollup_cache_hits/misses on
// GET /fleet/shards).
func (s *Server) getFleetRollup(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.rollup())
}

// getFleetShards reports the sharded engine's topology and health:
// per-shard host counts, clocks, epoch/advance counters, quarantines,
// and the roll-up cache's hit/miss/refold accounting.
func (s *Server) getFleetShards(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Stats())
}

// getFleetEvents streams the fleet fan-in bus — every host's events,
// tagged with the originating host, plus the runner's epoch barriers —
// as server-sent events.
func (s *Server) getFleetEvents(w http.ResponseWriter, r *http.Request) {
	streamSSE(w, r, s.runner.Bus())
}
