// Package httpapi exposes the manageable intra-host network over a
// JSON control plane — the operator-facing surface of the paper's
// vision: inspect the topology, read per-link and per-tenant usage,
// admit and evict tenants (compile -> schedule -> arbitrate), pull
// anomaly detections, run diagnostics, and checkpoint, restore and
// place tenants across hosts, all against simulated hosts driven by
// explicit virtual-time advancement.
//
// One Server serves a fleet of recording hosts; a single-host daemon
// is a one-host fleet. Two route tables describe the whole surface:
//
//   - the host table: operations on one resolved host (topology,
//     tenants, diagnostics, telemetry, checkpoints, remediation, event
//     streams), each written once and mounted under
//     /api/v1/fleet/hosts/{host}/ — and, when the fleet has exactly
//     one host, also directly under /api/v1/;
//   - the fleet table: operations over every host (advance, placement,
//     migration, rebalancing, roll-ups, shards, fleet remediation,
//     /healthz), with /api/v1/advance as the one-host alias of
//     /api/v1/fleet/advance.
//
// Every route's request and response types live in internal/api;
// typed handlers return them and one adapter writes every reply (see
// envelope.go). Every non-2xx response carries the single typed error
// envelope {"error":{"code","message"}}. Handlers honor
// r.Context(): a client that disconnects mid-operation gets a 499
// envelope instead of a partial body, and long advances abort between
// epochs.
//
// The simulation engine is single-threaded per host, and the fleet
// runner is not safe for concurrent use, so one RWMutex serializes the
// handlers — mutating endpoints (and "reads" that settle lazy fabric
// accounting) take the write lock, immutable reads share the read lock
// — and virtual time moves only via the advance routes (or the
// daemon's optional auto-advance loop), so API interactions are
// deterministic and replayable. Every host records through its
// snap.Session, so every mutating command is journaled.
package httpapi

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/store"
)

// Server is the control plane over a fleet of recording hosts.
type Server struct {
	mu sync.RWMutex
	// swap guards a host's Mgr/Sess fields against lock-free readers
	// (the lockNone routes, /metrics, roll-ups): a restore swaps them
	// under both locks, so readers that must not wait for an advance
	// take only this one, briefly.
	swap   sync.RWMutex
	fleet  *fleet.Fleet
	runner *fleet.ShardedRunner
	// hosts resolves {host} path values; membership is fixed at
	// construction (restores swap a host's session, never the host).
	hosts map[string]*fleet.Host
	// only is the fleet's sole host when it has exactly one, else nil:
	// it selects the /api/v1/ aliases and backs them.
	only    *fleet.Host
	reg     *obs.Registry
	rem     *remedy.FleetController // nil when remediation is not wired in
	stores  *store.FleetStore       // nil when durable persistence is not wired in
	started time.Time
}

// The fleet bus's ring: N hosts multiply the event rate, so it grows
// by fleetBusPerHost events per host up to fleetBusCapacity. A fleet
// stream subscriber loses events only when it falls that far behind.
const (
	fleetBusPerHost  = 1024
	fleetBusCapacity = 16384
)

// New builds the control plane over a fleet and the sharded engine
// that advances it (one shard degenerates to the classic
// single-barrier runner). Every fleet host records, so every handler
// journals through the host's session. A nil cfg.Registry is replaced
// with a fresh one so /metrics always has a surface to serve, and a
// nil cfg.Bus with a fan-in bus sized from the host count so
// /fleet/events always streams.
func New(f *fleet.Fleet, cfg fleet.ShardConfig) (*Server, error) {
	hosts := f.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("httpapi: fleet has no hosts")
	}
	s := &Server{fleet: f, hosts: make(map[string]*fleet.Host, len(hosts)), started: time.Now()}
	for _, h := range hosts {
		s.hosts[h.Name] = h
	}
	if len(hosts) == 1 {
		s.only = hosts[0]
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Bus == nil {
		cfg.Bus = obs.NewBus(min(fleetBusCapacity, len(hosts)*fleetBusPerHost))
	}
	s.reg = cfg.Registry
	s.runner = fleet.NewShardedRunner(f, cfg)
	return s, nil
}

// SetStore attaches the durable store. The daemon calls it once at
// boot, after every host session has been bootstrapped or recovered
// against its store; the server needs the handle so snapshots also
// persist, restores rewrite the host's store, and /healthz reports
// occupancy.
func (s *Server) SetStore(fs *store.FleetStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores = fs
}

// SetRemedy wires the remediation controllers: the remedy endpoints
// come alive, Advance steps the control loops between epochs, and
// healthz gains the remedy subsystem. Call before serving traffic.
func (s *Server) SetRemedy(fc *remedy.FleetController) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rem = fc
}

// Fleet returns the served fleet.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// Runner returns the sharded engine (a remediation controller built on
// top quarantines hosts through it).
func (s *Server) Runner() *fleet.ShardedRunner { return s.runner }

// Registry returns the server-level metrics registry (epoch timings,
// auth counters) — the one /metrics serves first.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Advance moves the whole fleet forward by d under the server's lock —
// the daemon's auto-advance loop drives this. With remediation wired
// in, the per-host controllers step once after the outer barrier, in
// host order; their actions mutate host state outside the epoch loop,
// so every shard's roll-up cache is invalidated afterwards.
func (s *Server) Advance(d simtime.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = s.runner.RunFor(nil, d)
	if s.rem != nil {
		s.rem.StepAll()
		s.runner.MarkAllDirty()
	}
}

// hostPrefix is where the host table is mounted for every host.
const hostPrefix = "/fleet/hosts/{host}"

// hostRoutes is the host table: every operation on one host, written
// once. Lock discipline: lockRead endpoints touch only immutable or
// copy-on-read state. lockWrite endpoints either mutate outright or
// are "reads" that settle lazy fabric accounting (report, usage,
// verify, telemetry, solver sizing, state hashing). lockNone endpoints
// (trace events, the event stream) synchronize on their own and never
// stall the simulation — a wedged simulation never hides the evidence.
func (s *Server) hostRoutes() []route {
	const ok, created = http.StatusOK, http.StatusCreated
	return []route{
		{"GET", "/topology", lockRead, hostJSON(ok, getTopology)},
		{"GET", "/report", lockWrite, hostJSON(ok, getReport)},
		{"GET", "/alerts", lockRead, hostJSON(ok, getAlerts)},
		{"GET", "/detections", lockRead, hostJSON(ok, getDetections)},
		{"GET", "/tenants", lockRead, hostJSON(ok, getTenants)},
		{"POST", "/tenants", lockWrite, hostJSON(created, postTenant)},
		{"DELETE", "/tenants/{id}", lockWrite, hostJSON(ok, deleteTenant)},
		{"GET", "/tenants/{id}/verify", lockWrite, hostJSON(ok, getVerify)},
		{"GET", "/tenants/{id}/usage", lockWrite, hostJSON(ok, getTenantUsage)},
		// Batched mutations: one envelope, one journal entry, one
		// solver settle (see batch.go).
		{"POST", "/batch", lockWrite, hostJSON(ok, postBatch)},
		{"GET", "/fabric/solver", lockWrite, hostJSON(ok, getSolver)},
		{"GET", "/diag/ping", lockWrite, hostJSON(ok, getPing)},
		{"GET", "/diag/trace", lockWrite, hostJSON(ok, getTrace)},
		{"GET", "/diag/perf", lockWrite, hostJSON(ok, getPerf)},
		{"GET", "/telemetry", lockWrite, hostJSON(ok, getTelemetry)},
		// Checkpoint/restore and the command journal.
		{"POST", "/snapshot", lockWrite, raw(s.postSnapshot)},
		{"POST", "/restore", lockWrite, hostJSON(ok, s.postRestore)},
		{"GET", "/journal", lockRead, raw(getJournal)},
		// Canonical state fingerprint — what the e2e harness compares
		// across a kill/restart cycle.
		{"GET", "/state/hash", lockWrite, hostJSON(ok, s.getStateHash)},
		// Closed-loop remediation (unavailable unless the daemon was
		// started with -remedy).
		{"GET", "/remedy/status", lockRead, s.needRemedy(hostJSON(ok, s.getRemedyStatus))},
		{"GET", "/remedy/policy", lockRead, s.needRemedy(hostJSON(ok, s.getRemedyPolicy))},
		{"PUT", "/remedy/policy", lockWrite, s.needRemedy(hostJSON(ok, s.putRemedyPolicy))},
		{"GET", "/trace/events", lockNone, hostJSON(ok, getTraceEvents)},
		{"GET", "/events", lockNone, raw(getEvents)},
	}
}

// fleetRoutes is the fleet table. Everything that touches simulation
// state takes the write lock; healthz, shards and the remediation
// reads share the read lock; the observability surface is lockNone:
// roll-ups read host registries through the same atomics the writers
// use, and a stalled SSE client must never hold the server lock.
func (s *Server) fleetRoutes() []route {
	const ok, created = http.StatusOK, http.StatusCreated
	rs := []route{
		{"GET", "/fleet/hosts", lockWrite, fleetJSON(ok, s.getHosts)},
		{"GET", "/fleet/report", lockWrite, fleetJSON(ok, s.getFleetReport)},
		{"POST", "/fleet/advance", lockWrite, fleetJSON(ok, s.postFleetAdvance)},
		{"POST", "/fleet/tenants", lockWrite, fleetJSON(created, s.postPlace)},
		{"DELETE", "/fleet/tenants/{id}", lockWrite, fleetJSON(ok, s.deleteFleetTenant)},
		{"POST", "/fleet/tenants/{id}/migrate", lockWrite, fleetJSON(ok, s.postMigrate)},
		{"POST", "/fleet/rebalance", lockWrite, fleetJSON(ok, s.postRebalance)},
		{"GET", "/fleet/fabric/solver", lockWrite, fleetJSON(ok, s.getFleetSolver)},
		{"GET", "/fleet/state/hash", lockWrite, fleetJSON(ok, s.getFleetStateHash)},
		{"GET", "/fleet/shards", lockRead, fleetJSON(ok, s.getFleetShards)},
		{"GET", "/fleet/metrics/rollup", lockNone, fleetJSON(ok, s.getFleetRollup)},
		{"GET", "/fleet/events", lockNone, raw(s.getFleetEvents)},
		{"GET", "/fleet/remedy/status", lockRead, s.needRemedy(fleetJSON(ok, s.getFleetRemedyStatus))},
		{"GET", "/fleet/remedy/policy", lockRead, s.needRemedy(fleetJSON(ok, s.getFleetRemedyPolicy))},
		{"PUT", "/fleet/remedy/policy", lockWrite, s.needRemedy(fleetJSON(ok, s.putFleetRemedyPolicy))},
		{"GET", "/healthz", lockRead, fleetJSON(ok, s.getHealthz)},
		{"GET", "/experiments/{id}", lockNone, fleetJSON(ok, getExperiment)},
	}
	if s.only != nil {
		rs = append(rs, route{"POST", "/advance", lockWrite, fleetJSON(ok, s.postFleetAdvance)})
	}
	return rs
}

// apiRoutes is the full v1 surface as mounted: the fleet table, then
// the host table under hostPrefix and, on a one-host fleet, at the
// top level too. It is the single source of truth for Handler and the
// route-completeness tests.
func (s *Server) apiRoutes() []route {
	rs := s.fleetRoutes()
	for i := range rs {
		if rs[i].Lock == lockWrite {
			rs[i].Handler = s.rootSpans(rs[i].Handler)
		}
	}
	for _, hr := range s.hostRoutes() {
		hr.Handler = s.onHost(hr.Lock, hr.Handler)
		rs = append(rs, route{hr.Method, hostPrefix + hr.Pattern, hr.Lock, hr.endpoint})
		if s.only != nil {
			rs = append(rs, hr)
		}
	}
	return rs
}

// Handler returns the API mux: the v1 tables under /api/v1/ and the
// unversioned operational surface (/metrics, /debug/pprof/), which
// skips the server lock — registries read through the same atomics
// the writers use.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mountRoutes(mux, s.apiRoutes(), s.wrap)
	mux.HandleFunc("GET /metrics", s.getMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// wrap applies the route's lock mode. Both lock paths re-check the
// request context after acquiring: a client that gave up while queued
// behind a long advance gets the 499 envelope instead of a handler
// run it will never read.
func (s *Server) wrap(lock lockMode, h http.HandlerFunc) http.HandlerFunc {
	switch lock {
	case lockRead:
		return func(w http.ResponseWriter, r *http.Request) {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if err := r.Context().Err(); err != nil {
				writeErr(w, fail(StatusClientClosedRequest, err))
				return
			}
			h(w, r)
		}
	case lockWrite:
		return func(w http.ResponseWriter, r *http.Request) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := r.Context().Err(); err != nil {
				writeErr(w, fail(StatusClientClosedRequest, err))
				return
			}
			h(w, r)
		}
	}
	return h
}

// onHost resolves the route's host: the {host} path value, or the
// sole host on the one-host aliases. On write routes it roots the
// journal span at the request ID on that host's session and marks the
// host's shard dirty afterwards. lockNone handlers see a copy of the
// host taken under the swap lock, since a concurrent restore replaces
// the live fields.
func (s *Server) onHost(lock lockMode, fn hostHandler) hostHandler {
	return func(w http.ResponseWriter, r *http.Request, _ *fleet.Host) {
		h := s.only
		if name := r.PathValue("host"); name != "" {
			h = s.hosts[name]
		}
		if h == nil {
			writeErr(w, fail(http.StatusNotFound, fmt.Errorf("unknown host %q", r.PathValue("host"))))
			return
		}
		switch lock {
		case lockNone:
			s.swap.RLock()
			cp := *h
			s.swap.RUnlock()
			h = &cp
		case lockWrite:
			if id := RequestID(r); id != "" {
				h.Sess.SetSpan(id)
				defer func() { h.Sess.SetSpan("") }()
			}
			defer s.runner.MarkDirty(h.Name)
		}
		fn(w, r, h)
	}
}

// rootSpans roots the journal span at the request ID on every host's
// session for the duration of a fleet-wide write: whichever hosts the
// operation journals on carry the request's span, and no span outlives
// the request.
func (s *Server) rootSpans(fn hostHandler) hostHandler {
	return func(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
		id := RequestID(r)
		if id == "" {
			fn(w, r, h)
			return
		}
		for _, h := range s.hosts {
			h.Sess.SetSpan(id)
		}
		defer func() {
			for _, h := range s.hosts {
				h.Sess.SetSpan("")
			}
		}()
		fn(w, r, h)
	}
}

// getMetrics renders the server registry (runner and auth metrics),
// then the hosts' metrics in Prometheus text exposition format:
// the fleet roll-up — every host's counters and histograms merged, so
// a 256-host fleet is one Prometheus target — or, on a one-host fleet,
// that host's registry itself, which is its own roll-up. Lock-free
// with respect to the simulation.
func (s *Server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
	if s.only != nil {
		s.swap.RLock()
		reg := s.only.Mgr.Obs().Registry
		s.swap.RUnlock()
		_ = reg.WritePrometheus(w)
		return
	}
	_ = s.rollup().WritePrometheus(w)
}

// rollup folds the fleet's metrics; the swap lock keeps a concurrent
// restore from replacing a host registry mid-fold.
func (s *Server) rollup() obs.Snapshot {
	s.swap.RLock()
	defer s.swap.RUnlock()
	return s.runner.Rollup()
}

// getHealthz reports liveness: build info, uptime, the fleet clock,
// observability counts summed over hosts, the engine's shape, and a
// per-subsystem status. Any alerted heartbeat pair, open remediation
// incident or quarantined host flips the top-level status, so `ihctl
// health` (which exits non-zero on anything but "ok") is a usable
// automation probe.
func (s *Server) getHealthz(*http.Request) (api.Health, error) {
	out := api.Health{
		Mode:          boolStatus(s.only != nil, "host", "fleet"),
		Version:       "unknown",
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		VirtualTimeNs: int64(s.runner.Now()),
		MetricCount:   s.reg.MetricCount(),
		Hosts:         len(s.hosts),
		Workers:       s.runner.Workers(),
		Shards:        s.runner.Shards(),
		EpochNs:       int64(s.runner.Epoch()),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			out.Version = bi.Main.Version // "(devel)" for tree builds
		}
		out.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				out.VCSRevision = kv.Value
			}
		}
	}
	var journal, detections, subs int
	var busDropped uint64
	alerted, telemetry := false, true
	for _, h := range s.hosts {
		m, o := h.Mgr, h.Mgr.Obs()
		out.ActiveFlows += m.Fabric().Flows()
		out.Tenants += len(m.Tenants())
		detections += m.Anomaly().DetectionCount()
		alerted = alerted || m.Anomaly().Alerted()
		telemetry = telemetry && m.Telemetry() != nil
		journal += h.Sess.Journal().Len()
		out.EventsProcessed += m.Engine().Processed
		out.MetricCount += o.Registry.MetricCount()
		out.TraceEvents += o.Tracer.Total()
		out.TraceDropped += o.Tracer.Dropped()
		subs += o.Bus.Subscribers()
		busDropped += o.Bus.Dropped()
	}
	failed := s.runner.Failed()
	out.Quarantined = len(failed)
	quarantined := make([]string, 0, len(failed))
	for name := range failed {
		quarantined = append(quarantined, name)
	}
	sort.Strings(quarantined)
	remedyDegraded := s.rem != nil && s.rem.Degraded()
	out.Status = boolStatus(!alerted && !remedyDegraded && len(failed) == 0, "ok", "degraded")
	bus := s.runner.Bus()
	st := s.runner.Stats()
	out.Subsystems = api.Subsystems{
		Fabric:    api.FabricHealth{Status: "ok", ActiveFlows: out.ActiveFlows},
		Snap:      api.SnapHealth{Status: "ok", Enabled: true, JournalEntries: journal},
		Telemetry: api.TelemetryHealth{Status: boolStatus(telemetry, "ok", "disabled")},
		ObsBus: api.BusHealth{
			Status:      "ok",
			Subscribers: subs + bus.Subscribers(),
			Published:   bus.Seq(),
			Dropped:     busDropped + bus.Dropped(),
		},
		Anomaly: api.AnomalyHealth{Status: boolStatus(!alerted, "ok", "degraded"), Detections: detections},
		Runner: api.RunnerHealth{
			Status:      boolStatus(len(failed) == 0, "ok", "degraded"),
			Workers:     s.runner.Workers(),
			Shards:      s.runner.Shards(),
			OuterEvery:  s.runner.OuterEvery(),
			OuterEpochs: st.OuterEpochs,
			Quarantined: quarantined,
		},
		RollupCache: api.RollupCacheHealth{Status: "ok", Hits: st.RollupCacheHits, Misses: st.RollupCacheMisses},
		Remedy:      api.RemedyHealth{Status: "disabled"},
		Store:       api.StoreHealth{Status: "disabled"},
	}
	if s.rem != nil {
		rs := s.rem.Stats()
		out.Subsystems.Remedy = api.RemedyHealth{
			Status:       boolStatus(!remedyDegraded, "ok", "degraded"),
			RemedyCounts: &api.RemedyCounts{OpenIncidents: rs.Open, Resolved: rs.Resolved},
		}
	}
	if s.stores != nil {
		fst := s.stores.Stats()
		out.Subsystems.Store = api.StoreHealth{Status: "ok", FleetStats: &fst}
	}
	return out, nil
}

// boolStatus maps a condition to one of two status strings.
func boolStatus(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// getExperiment runs one of the paper's experiments server-side. It
// builds its own hosts, so it touches no served state.
func getExperiment(r *http.Request) (api.Experiment, error) {
	exp, err := experiments.ByID(strings.ToUpper(r.PathValue("id")))
	if err != nil {
		return api.Experiment{}, fail(http.StatusNotFound, err)
	}
	tab, err := exp.Run(42)
	if err != nil {
		return api.Experiment{}, err
	}
	return api.Experiment{
		ID: tab.ID, Title: tab.Title, Columns: tab.Columns,
		Rows: tab.Rows, Notes: tab.Notes, Rendered: tab.Render(),
	}, nil
}
