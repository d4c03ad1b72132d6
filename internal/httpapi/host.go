package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// The host table's handlers: one operation on one resolved host,
// mounted under /api/v1/fleet/hosts/{host}/ and, on a one-host fleet,
// directly under /api/v1/.

type componentDTO struct {
	ID     string            `json:"id"`
	Kind   string            `json:"kind"`
	Socket int               `json:"socket"`
	Config map[string]string `json:"config,omitempty"`
}

type linkDTO struct {
	ID          string  `json:"id"`
	Class       string  `json:"class"`
	FigureRef   int     `json:"figure_ref"`
	CapacityBps float64 `json:"capacity_bps"`
	LatencyNs   int64   `json:"latency_ns"`
}

type topologyDTO struct {
	Name       string         `json:"name"`
	Components []componentDTO `json:"components"`
	Links      []linkDTO      `json:"links"`
}

func getTopology(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	topo := h.Mgr.Topology()
	out := topologyDTO{Name: topo.Name}
	for _, c := range topo.Components() {
		out.Components = append(out.Components, componentDTO{
			ID: string(c.ID), Kind: c.Kind.String(), Socket: c.Socket, Config: c.Config,
		})
	}
	for _, l := range topo.Links() {
		out.Links = append(out.Links, linkDTO{
			ID: string(l.ID), Class: l.Class.String(), FigureRef: l.Class.FigureRef(),
			CapacityBps: float64(l.Capacity), LatencyNs: int64(l.BaseLatency),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type linkUsageDTO struct {
	ID          string             `json:"id"`
	Utilization float64            `json:"utilization"`
	RateBps     float64            `json:"rate_bps"`
	Failed      bool               `json:"failed,omitempty"`
	TenantBytes map[string]float64 `json:"tenant_bytes,omitempty"`
}

type reportDTO struct {
	VirtualTimeNs int64                         `json:"virtual_time_ns"`
	Links         []linkUsageDTO                `json:"links"`
	Tenants       map[string]map[string]float64 `json:"tenant_usage_bps"`
	Congested     []string                      `json:"congested,omitempty"`
}

func getReport(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	rep := h.Mgr.Monitor().UsageReport()
	out := reportDTO{
		VirtualTimeNs: int64(rep.At),
		Tenants:       make(map[string]map[string]float64),
	}
	for _, st := range rep.Links {
		lu := linkUsageDTO{
			ID: string(st.Link), Utilization: st.Utilization,
			RateBps: float64(st.CurrentRate), Failed: st.Failed,
		}
		if len(st.TenantBytes) > 0 {
			lu.TenantBytes = make(map[string]float64, len(st.TenantBytes))
			for t, b := range st.TenantBytes {
				lu.TenantBytes[string(t)] = b
			}
		}
		out.Links = append(out.Links, lu)
	}
	for _, tu := range rep.Tenants {
		m := make(map[string]float64)
		for class, r := range tu.ByClass {
			m[class.String()] = float64(r)
		}
		out.Tenants[string(tu.Tenant)] = m
	}
	for _, l := range rep.Congested {
		out.Congested = append(out.Congested, string(l))
	}
	writeJSON(w, http.StatusOK, out)
}

func getAlerts(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	writeJSON(w, http.StatusOK, h.Mgr.Monitor().Alerts())
}

func getDetections(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	type suspectDTO struct {
		Link  string  `json:"link"`
		Score float64 `json:"score"`
	}
	type detectionDTO struct {
		AtNs     int64        `json:"at_ns"`
		Pair     string       `json:"pair"`
		Lost     bool         `json:"lost"`
		Suspects []suspectDTO `json:"suspects"`
	}
	var out []detectionDTO
	for _, d := range h.Mgr.Anomaly().Detections() {
		dd := detectionDTO{AtNs: int64(d.At), Pair: d.Pair.String(), Lost: d.Lost}
		for _, su := range d.Suspects {
			dd.Suspects = append(dd.Suspects, suspectDTO{Link: string(su.Link), Score: su.Score})
		}
		out = append(out, dd)
	}
	writeJSON(w, http.StatusOK, out)
}

type targetDTO struct {
	Model    string  `json:"model,omitempty"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
	MaxLatNs int64   `json:"max_latency_ns,omitempty"`
}

type admitDTO struct {
	Tenant  string      `json:"tenant"`
	Targets []targetDTO `json:"targets"`
}

// intentTargets decodes an admission document into intent targets.
func (req admitDTO) intentTargets() []intent.Target {
	targets := make([]intent.Target, 0, len(req.Targets))
	for _, t := range req.Targets {
		targets = append(targets, intent.Target{
			Tenant: fabric.TenantID(req.Tenant),
			Src:    topology.CompID(t.Src), Dst: topology.CompID(t.Dst),
			Rate:       topology.Gbps(t.RateGbps),
			MaxLatency: simtime.Duration(t.MaxLatNs),
		})
	}
	return targets
}

type viewDTO struct {
	Tenant   string             `json:"tenant"`
	Host     string             `json:"host"`
	LinksBps map[string]float64 `json:"guaranteed_links_bps"`
}

// newViewDTO renders an admitted tenant's guarantees on the named host.
func newViewDTO(tenant fabric.TenantID, host string, links map[topology.LinkID]topology.Rate) viewDTO {
	out := viewDTO{Tenant: string(tenant), Host: host, LinksBps: make(map[string]float64, len(links))}
	for l, rate := range links {
		out.LinksBps[string(l)] = float64(rate)
	}
	return out
}

func postTenant(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	var req admitDTO
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	view, err := h.Sess.Admit(req.Tenant, req.intentTargets())
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, newViewDTO(view.Tenant, h.Name, view.Reservation.Links))
}

func deleteTenant(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	id := r.PathValue("id")
	if err := h.Sess.Evict(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id, "host": h.Name})
}

func getTenants(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	type tenantDTO struct {
		ID      string   `json:"id"`
		Targets []string `json:"targets"`
	}
	out := []tenantDTO{}
	for _, t := range h.Mgr.Tenants() {
		td := tenantDTO{ID: string(t.ID)}
		for _, target := range t.Targets {
			td.Targets = append(td.Targets, target.String())
		}
		out = append(out, td)
	}
	writeJSON(w, http.StatusOK, out)
}

func getPing(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	rep, err := h.Sess.Ping(r.URL.Query().Get("src"), r.URL.Query().Get("dst"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report": rep.String(),
		"sent":   rep.Sent,
		"lost":   rep.Lost,
		"avg_ns": int64(rep.Avg),
		"p99_ns": int64(rep.P99),
	})
}

func getTrace(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	rep, err := h.Sess.Trace(r.URL.Query().Get("src"), r.URL.Query().Get("dst"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	type hopDTO struct {
		Link  string `json:"link"`
		RTTNs int64  `json:"rtt_ns"`
		HopNs int64  `json:"hop_ns"`
		Lost  bool   `json:"lost,omitempty"`
	}
	hops := make([]hopDTO, 0, len(rep.Hops))
	for _, hop := range rep.Hops {
		hops = append(hops, hopDTO{Link: string(hop.Link), RTTNs: int64(hop.Cumulative),
			HopNs: int64(hop.HopLatency), Lost: hop.Lost})
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": rep.Path.String(), "hops": hops})
}

func getPerf(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	q := r.URL.Query()
	rep, err := h.Sess.Perf(q.Get("src"), q.Get("dst"), q.Get("tenant"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report":            rep.String(),
		"achieved_bps":      float64(rep.Achieved),
		"path_capacity_bps": float64(rep.PathCapacity),
		"bottleneck":        string(rep.BottleneckLink),
	})
}

func getVerify(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	vs, err := h.Mgr.VerifyTenant(fabric.TenantID(r.PathValue("id")))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type verificationDTO struct {
		Path        string  `json:"path"`
		PromisedBps float64 `json:"promised_bps"`
		AchievedBps float64 `json:"achieved_bps"`
		Met         bool    `json:"met"`
		LatencyNs   int64   `json:"latency_ns"`
		LatencyMet  bool    `json:"latency_met"`
	}
	out := make([]verificationDTO, 0, len(vs))
	for _, v := range vs {
		out = append(out, verificationDTO{
			Path: v.Path.String(), PromisedBps: float64(v.Promised),
			AchievedBps: float64(v.Achieved), Met: v.Met,
			LatencyNs: int64(v.IdleLatency), LatencyMet: v.LatencyMet,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func getTenantUsage(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	id := fabric.TenantID(r.PathValue("id"))
	rec := h.Mgr.Tenant(id)
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	type usageDTO struct {
		Link         string  `json:"link"`
		AllocatedBps float64 `json:"allocated_bps"`
		UsedBps      float64 `json:"used_bps"`
		Utilization  float64 `json:"utilization"`
	}
	var out []usageDTO
	for _, lu := range rec.View.UsageReport(h.Mgr.Fabric()) {
		out = append(out, usageDTO{
			Link: string(lu.Link), AllocatedBps: float64(lu.Allocated),
			UsedBps: float64(lu.Used), Utilization: lu.Utilization,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func getTelemetry(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	pl := h.Mgr.Telemetry()
	if pl == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("telemetry pipeline disabled"))
		return
	}
	q := r.URL.Query()
	var since simtime.Time
	if v := q.Get("since_ns"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if n < 0 {
			// Virtual time starts at 0; a negative cutoff is a client
			// bug, not "everything" — same contract as the SSE ?since=
			// resume parameter.
			writeErr(w, http.StatusBadRequest, fmt.Errorf("since_ns must be non-negative, got %d", n))
			return
		}
		since = simtime.Time(n)
	}
	link := topology.LinkID(q.Get("link"))
	metric := telemetry.Metric(q.Get("metric"))
	tenant := fabric.TenantID(q.Get("tenant"))
	type pointDTO struct {
		AtNs   int64   `json:"at_ns"`
		Link   string  `json:"link"`
		Tenant string  `json:"tenant,omitempty"`
		Metric string  `json:"metric"`
		Value  float64 `json:"value"`
	}
	out := []pointDTO{}
	for _, p := range pl.Store().Since(since) {
		if link != "" && p.Link != link {
			continue
		}
		if metric != "" && p.Metric != metric {
			continue
		}
		if tenant != "" && p.Tenant != tenant {
			continue
		}
		out = append(out, pointDTO{
			AtNs: int64(p.At), Link: string(p.Link), Tenant: string(p.Tenant),
			Metric: string(p.Metric), Value: p.Value,
		})
	}
	o := pl.Overhead()
	writeJSON(w, http.StatusOK, map[string]any{
		"points":            out,
		"dropped":           pl.Store().Dropped(),
		"points_per_second": o.PointsPerSecond,
		"spool_bps":         float64(o.SpoolRate),
	})
}

type traceEventDTO struct {
	// BusSeq is the stream position assigned by the fan-out bus (the
	// SSE frame id); zero on plain ring dumps.
	BusSeq    uint64  `json:"bus_seq,omitempty"`
	Seq       uint64  `json:"seq"`
	VirtualNs int64   `json:"virtual_ns"`
	WallNs    int64   `json:"wall_ns"`
	Kind      string  `json:"kind"`
	Subject   string  `json:"subject,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Value     float64 `json:"value,omitempty"`
	WallDurNs int64   `json:"wall_dur_ns,omitempty"`
	// Span is the journaled command this event is an effect of.
	Span string `json:"span,omitempty"`
	// Host is the originating host on fleet streams.
	Host string `json:"host,omitempty"`
}

// getTraceEvents dumps the host's event ring as JSON, oldest first.
// Query params: kind= filters by event kind name, limit= keeps only
// the newest N matching events.
func getTraceEvents(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	tr := h.Mgr.Obs().Tracer
	q := r.URL.Query()
	var kindFilter obs.EventKind
	if v := q.Get("kind"); v != "" {
		kindFilter = obs.KindByName(v)
		if kindFilter == obs.KindUnknown {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown event kind %q", v))
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	events := tr.Snapshot()
	out := make([]traceEventDTO, 0, len(events))
	for _, ev := range events {
		if kindFilter != obs.KindUnknown && ev.Kind != kindFilter {
			continue
		}
		out = append(out, traceEventDTO{
			Seq: ev.Seq, VirtualNs: int64(ev.Virtual), WallNs: ev.Wall,
			Kind: ev.Kind.String(), Subject: ev.Subject, Detail: ev.Detail,
			Value: ev.Value, WallDurNs: int64(ev.WallDur), Span: ev.Span,
		})
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  out,
		"total":   tr.Total(),
		"dropped": tr.Dropped(),
	})
}

// getEvents streams the host's live event bus as server-sent events.
func getEvents(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	streamSSE(w, r, h.Mgr.Obs().Bus)
}

// hostStore returns the host's durable store, or nil when the daemon
// runs without one.
func (s *Server) hostStore(name string) (*store.Store, error) {
	if s.stores == nil {
		return nil, nil
	}
	return s.stores.Host(name)
}

// postSnapshot writes a checkpoint of the host's session as the
// response body — a complete, self-describing ihnet-snapshot document
// the client can save and later POST to the restore route or feed to
// `ihdiag replay` — and, with a durable store, also persists it there.
func (s *Server) postSnapshot(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	st, err := s.hostStore(h.Name)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("open host store: %w", err))
		return
	}
	if st != nil {
		info, err := st.SaveSnapshot(h.Sess.BuildPayload())
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("persist checkpoint: %w", err))
			return
		}
		w.Header().Set("X-Store-Snapshot-Seq", strconv.FormatUint(info.Seq, 10))
		w.Header().Set("X-Store-Chunks-Written", strconv.Itoa(info.ChunksWritten))
		w.Header().Set("X-Store-Chunks-Reused", strconv.Itoa(info.ChunksReused))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", h.Name+"-snapshot.json"))
	if err := h.Sess.Snapshot(w); err != nil {
		// Headers are gone; the truncated body will fail checksum
		// verification client-side, which is the protection we want.
		fmt.Fprintf(w, "\n{\"error\": %q}\n", err.Error())
	}
}

// postRestore replaces the host's session with one rebuilt from the
// posted snapshot. The swap is atomic under the write lock: until the
// replayed state verifies against the recorded hash, the old session
// keeps serving. The restored session is rewired everywhere the old
// one was bound: the durable store, the fleet bus and roll-up cache,
// and the host's remediation controller.
func (s *Server) postRestore(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	restored, err := snap.Restore(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Rewrite the durable store to match the incoming session before
	// the swap: if the rewrite fails the old session keeps serving and
	// the store still describes it.
	st, err := s.hostStore(h.Name)
	if err == nil && st != nil {
		if err = st.Reset(restored.Config(), restored.Journal().Entries); err == nil {
			st.Resume(restored)
		}
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("rewrite store: %w", err))
		return
	}
	s.swap.Lock()
	err = s.runner.Replace(h.Name, restored)
	s.swap.Unlock()
	if err == nil && s.rem != nil {
		err = s.rem.Rebind(h.Name)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"host":            h.Name,
		"restored":        true,
		"virtual_time_ns": int64(restored.Now()),
		"journal_entries": restored.Journal().Len(),
		"state_hash":      snap.StateHash(restored.Manager()),
	})
}

// getStateHash returns the host's canonical state fingerprint plus
// enough context (virtual time, journal length, store occupancy) for
// the e2e harness to assert byte-identical recovery after a
// kill/restart.
func (s *Server) getStateHash(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	out := map[string]any{
		"host":            h.Name,
		"state_hash":      snap.StateHash(h.Mgr),
		"virtual_time_ns": int64(h.Mgr.Engine().Now()),
		"journal_entries": h.Sess.Journal().Len(),
	}
	if st, err := s.hostStore(h.Name); err == nil && st != nil {
		ss := st.Stats()
		out["store_wal_records"] = ss.WalRecords
		out["store_snapshot_seq"] = ss.SnapshotSeq
	}
	writeJSON(w, http.StatusOK, out)
}

// getJournal serves the host's recorded command log.
func getJournal(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	w.Header().Set("Content-Type", "application/json")
	j := h.Sess.Journal()
	_ = j.Encode(w)
}
