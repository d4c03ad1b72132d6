package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/intent"
	"repro/internal/monitor"
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

func getTopology(_ *http.Request, h *fleet.Host) (api.Topology, error) {
	topo := h.Mgr.Topology()
	out := api.Topology{Name: topo.Name}
	for _, c := range topo.Components() {
		out.Components = append(out.Components, api.Component{
			ID: string(c.ID), Kind: c.Kind.String(), Socket: c.Socket, Config: c.Config,
		})
	}
	for _, l := range topo.Links() {
		out.Links = append(out.Links, api.Link{
			ID: string(l.ID), Class: l.Class.String(), FigureRef: l.Class.FigureRef(),
			CapacityBps: float64(l.Capacity), LatencyNs: int64(l.BaseLatency),
		})
	}
	return out, nil
}

func getReport(_ *http.Request, h *fleet.Host) (api.Report, error) {
	rep := h.Mgr.Monitor().UsageReport()
	out := api.Report{
		VirtualTimeNs: int64(rep.At),
		Tenants:       make(map[string]map[string]float64),
	}
	for _, st := range rep.Links {
		lu := api.LinkUsage{
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
	return out, nil
}

func getAlerts(_ *http.Request, h *fleet.Host) ([]monitor.Alert, error) {
	return h.Mgr.Monitor().Alerts(), nil
}

func getDetections(_ *http.Request, h *fleet.Host) ([]api.Detection, error) {
	var out []api.Detection
	for _, d := range h.Mgr.Anomaly().Detections() {
		dd := api.Detection{AtNs: int64(d.At), Pair: d.Pair.String(), Lost: d.Lost}
		for _, su := range d.Suspects {
			dd.Suspects = append(dd.Suspects, api.Suspect{Link: string(su.Link), Score: su.Score})
		}
		out = append(out, dd)
	}
	return out, nil
}

// decodeBody decodes a JSON request body; a malformed one is a 400.
func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	return nil
}

// intentTargets converts an admission document into intent targets.
func intentTargets(req api.Admit) []intent.Target {
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

// tenantView renders an admitted tenant's guarantees on the named host.
func tenantView(tenant fabric.TenantID, host string, links map[topology.LinkID]topology.Rate) api.TenantView {
	out := api.TenantView{Tenant: string(tenant), Host: host, LinksBps: make(map[string]float64, len(links))}
	for l, rate := range links {
		out.LinksBps[string(l)] = float64(rate)
	}
	return out
}

func postTenant(r *http.Request, h *fleet.Host) (api.TenantView, error) {
	var req api.Admit
	if err := decodeBody(r, &req); err != nil {
		return api.TenantView{}, err
	}
	view, err := h.Sess.Admit(req.Tenant, intentTargets(req))
	if err != nil {
		return api.TenantView{}, fail(http.StatusConflict, err)
	}
	return tenantView(view.Tenant, h.Name, view.Reservation.Links), nil
}

func deleteTenant(r *http.Request, h *fleet.Host) (api.Evicted, error) {
	id := r.PathValue("id")
	if err := h.Sess.Evict(id); err != nil {
		return api.Evicted{}, fail(http.StatusNotFound, err)
	}
	return api.Evicted{Evicted: id, Host: h.Name}, nil
}

func getTenants(_ *http.Request, h *fleet.Host) ([]api.Tenant, error) {
	out := []api.Tenant{}
	for _, t := range h.Mgr.Tenants() {
		td := api.Tenant{ID: string(t.ID)}
		for _, target := range t.Targets {
			td.Targets = append(td.Targets, target.String())
		}
		out = append(out, td)
	}
	return out, nil
}

func getPing(r *http.Request, h *fleet.Host) (api.Ping, error) {
	rep, err := h.Sess.Ping(r.URL.Query().Get("src"), r.URL.Query().Get("dst"))
	if err != nil {
		return api.Ping{}, fail(http.StatusBadRequest, err)
	}
	return api.Ping{
		Report: rep.String(), Sent: rep.Sent, Lost: rep.Lost,
		AvgNs: int64(rep.Avg), P99Ns: int64(rep.P99),
	}, nil
}

func getTrace(r *http.Request, h *fleet.Host) (api.Trace, error) {
	rep, err := h.Sess.Trace(r.URL.Query().Get("src"), r.URL.Query().Get("dst"))
	if err != nil {
		return api.Trace{}, fail(http.StatusBadRequest, err)
	}
	out := api.Trace{Path: rep.Path.String(), Hops: make([]api.TraceHop, 0, len(rep.Hops))}
	for _, hop := range rep.Hops {
		out.Hops = append(out.Hops, api.TraceHop{Link: string(hop.Link), RTTNs: int64(hop.Cumulative),
			HopNs: int64(hop.HopLatency), Lost: hop.Lost})
	}
	return out, nil
}

func getPerf(r *http.Request, h *fleet.Host) (api.Perf, error) {
	q := r.URL.Query()
	src, dst, tenant := q.Get("src"), q.Get("dst"), q.Get("tenant")
	if intent.IsMemoryPseudo(topology.CompID(dst)) {
		resolved, err := assignedDst(h, src, dst, tenant)
		if err != nil {
			return api.Perf{}, fail(http.StatusBadRequest, err)
		}
		dst = resolved
	}
	rep, err := h.Sess.Perf(src, dst, tenant)
	if err != nil {
		return api.Perf{}, fail(http.StatusBadRequest, err)
	}
	return api.Perf{
		Report:          rep.String(),
		AchievedBps:     float64(rep.Achieved),
		PathCapacityBps: float64(rep.PathCapacity),
		Bottleneck:      string(rep.BottleneckLink),
	}, nil
}

// assignedDst resolves a memory pseudo-destination (memory:any,
// memory:socketN) to the memory the tenant's admitted pipe from src to
// dst was scheduled on, so a pipe can be probed by the name it was
// admitted under. The probe then journals a concrete component and
// replays without rescheduling anything.
func assignedDst(h *fleet.Host, src, dst, tenant string) (string, error) {
	if tenant == "" {
		return "", fmt.Errorf("destination %q needs tenant= to name whose assigned memory to probe", dst)
	}
	rec := h.Mgr.Tenant(fabric.TenantID(tenant))
	if rec == nil {
		return "", fmt.Errorf("unknown tenant %q", tenant)
	}
	for _, a := range rec.Assignments {
		t := a.Req.Target
		if a.Admitted && t.Src == topology.CompID(src) && t.Dst == topology.CompID(dst) {
			return string(a.Path.Dst()), nil
		}
	}
	return "", fmt.Errorf("tenant %q has no admitted pipe %s -> %s", tenant, src, dst)
}

func getVerify(r *http.Request, h *fleet.Host) ([]api.Verification, error) {
	vs, err := h.Mgr.VerifyTenant(fabric.TenantID(r.PathValue("id")))
	if err != nil {
		return nil, fail(http.StatusNotFound, err)
	}
	out := make([]api.Verification, 0, len(vs))
	for _, v := range vs {
		out = append(out, api.Verification{
			Path: v.Path.String(), PromisedBps: float64(v.Promised),
			AchievedBps: float64(v.Achieved), Met: v.Met,
			LatencyNs: int64(v.IdleLatency), LatencyMet: v.LatencyMet,
		})
	}
	return out, nil
}

func getTenantUsage(r *http.Request, h *fleet.Host) ([]api.TenantLinkUsage, error) {
	id := fabric.TenantID(r.PathValue("id"))
	rec := h.Mgr.Tenant(id)
	if rec == nil {
		return nil, fail(http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
	}
	var out []api.TenantLinkUsage
	for _, lu := range rec.View.UsageReport(h.Mgr.Fabric()) {
		out = append(out, api.TenantLinkUsage{
			Link: string(lu.Link), AllocatedBps: float64(lu.Allocated),
			UsedBps: float64(lu.Used), Utilization: lu.Utilization,
		})
	}
	return out, nil
}

func getTelemetry(r *http.Request, h *fleet.Host) (api.Telemetry, error) {
	pl := h.Mgr.Telemetry()
	if pl == nil {
		return api.Telemetry{}, fail(http.StatusNotFound, fmt.Errorf("telemetry pipeline disabled"))
	}
	q := r.URL.Query()
	var since simtime.Time
	if v := q.Get("since_ns"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return api.Telemetry{}, fail(http.StatusBadRequest, err)
		}
		if n < 0 {
			// Virtual time starts at 0; a negative cutoff is a client
			// bug, not "everything" — same contract as the SSE ?since=
			// resume parameter.
			return api.Telemetry{}, fail(http.StatusBadRequest, fmt.Errorf("since_ns must be non-negative, got %d", n))
		}
		since = simtime.Time(n)
	}
	link := topology.LinkID(q.Get("link"))
	metric := telemetry.Metric(q.Get("metric"))
	tenant := fabric.TenantID(q.Get("tenant"))
	o := pl.Overhead()
	out := api.Telemetry{
		Points:          []api.TelemetryPoint{},
		Dropped:         pl.Store().Dropped(),
		PointsPerSecond: o.PointsPerSecond,
		SpoolBps:        float64(o.SpoolRate),
	}
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
		out.Points = append(out.Points, api.TelemetryPoint{
			AtNs: int64(p.At), Link: string(p.Link), Tenant: string(p.Tenant),
			Metric: string(p.Metric), Value: p.Value,
		})
	}
	return out, nil
}

// getTraceEvents dumps the host's event ring as JSON, oldest first.
// Query params: kind= filters by event kind name, limit= keeps only
// the newest N matching events.
func getTraceEvents(r *http.Request, h *fleet.Host) (api.TraceEvents, error) {
	tr := h.Mgr.Obs().Tracer
	q := r.URL.Query()
	var kindFilter obs.EventKind
	if v := q.Get("kind"); v != "" {
		kindFilter = obs.KindByName(v)
		if kindFilter == obs.KindUnknown {
			return api.TraceEvents{}, fail(http.StatusBadRequest, fmt.Errorf("unknown event kind %q", v))
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return api.TraceEvents{}, fail(http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
		}
		limit = n
	}
	events := tr.Snapshot()
	out := make([]api.TraceEvent, 0, len(events))
	for _, ev := range events {
		if kindFilter != obs.KindUnknown && ev.Kind != kindFilter {
			continue
		}
		out = append(out, traceEvent(obs.BusEvent{Event: ev}))
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return api.TraceEvents{Events: out, Total: tr.Total(), Dropped: tr.Dropped()}, nil
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
		writeErr(w, fmt.Errorf("open host store: %w", err))
		return
	}
	if st != nil {
		info, err := st.SaveSnapshot(h.Sess.BuildPayload())
		if err != nil {
			writeErr(w, fmt.Errorf("persist checkpoint: %w", err))
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
func (s *Server) postRestore(r *http.Request, h *fleet.Host) (api.Restored, error) {
	restored, err := snap.Restore(r.Body)
	if err != nil {
		return api.Restored{}, fail(http.StatusBadRequest, err)
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
		return api.Restored{}, fmt.Errorf("rewrite store: %w", err)
	}
	s.swap.Lock()
	err = s.runner.Replace(h.Name, restored)
	s.swap.Unlock()
	if err == nil && s.rem != nil {
		err = s.rem.Rebind(h.Name)
	}
	if err != nil {
		return api.Restored{}, err
	}
	return api.Restored{
		Host:           h.Name,
		Restored:       true,
		VirtualTimeNs:  int64(restored.Now()),
		JournalEntries: restored.Journal().Len(),
		StateHash:      snap.StateHash(restored.Manager()),
	}, nil
}

// getStateHash returns the host's canonical state fingerprint plus
// enough context (virtual time, journal length, store occupancy) for
// the e2e harness to assert byte-identical recovery after a
// kill/restart.
func (s *Server) getStateHash(_ *http.Request, h *fleet.Host) (api.StateHash, error) {
	out := api.StateHash{
		Host:           h.Name,
		StateHash:      snap.StateHash(h.Mgr),
		VirtualTimeNs:  int64(h.Mgr.Engine().Now()),
		JournalEntries: h.Sess.Journal().Len(),
	}
	if st, err := s.hostStore(h.Name); err == nil && st != nil {
		ss := st.Stats()
		out.StoreWalRecords, out.StoreSnapshotSeq = &ss.WalRecords, &ss.SnapshotSeq
	}
	return out, nil
}

// getJournal serves the host's recorded command log.
func getJournal(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	w.Header().Set("Content-Type", "application/json")
	j := h.Sess.Journal()
	_ = j.Encode(w)
}
