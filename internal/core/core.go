// Package core wires the paper's two building blocks into one
// manageable intra-host network: the fine-grained monitoring system
// (monitor + anomaly platform + diagnostics hooks) and the holistic
// resource manager (interpreter -> scheduler -> arbiter, with
// virtualized per-tenant views). Manager is the public entry point the
// examples, the daemon and the benchmarks drive.
package core

import (
	"fmt"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/arbiter"
	"repro/internal/cachesim"
	"repro/internal/counters"
	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/resmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vnet"
)

// Options configures a Manager.
type Options struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// Fabric tunes the substrate simulator.
	Fabric fabric.Config
	// Monitor tunes the usage/config monitor.
	Monitor monitor.Options
	// Anomaly tunes the heartbeat platform; EnableAnomaly arms it at
	// Start (it costs fabric bandwidth, so it is explicit).
	Anomaly       anomaly.Config
	EnableAnomaly bool
	// Scheduler names the placement strategy: "topology-aware"
	// (default) or "naive".
	Scheduler string
	// Arbiter tunes run-time enforcement.
	Arbiter arbiter.Config
	// Cache tunes the DDIO/LLC model.
	Cache cachesim.Config
	// Counters tunes the emulated hardware counter bank.
	Counters counters.Config
	// PathsPerDestination is the interpreter's k.
	PathsPerDestination int
	// EnableTelemetry arms a periodic telemetry pipeline at Start;
	// Telemetry configures it. The pipeline's store backs the
	// history queries of the HTTP API.
	EnableTelemetry bool
	Telemetry       telemetry.PipelineConfig
	// TraceCapacity bounds the observability event ring (flow
	// lifecycle, cap changes, scheduler decisions, detections). Zero
	// means defaultTraceCapacity; negative disables event tracing.
	// Metrics are always on — their hot-path cost is a few atomics.
	TraceCapacity int
}

// defaultTraceCapacity is the event ring size a host gets unless its
// options say otherwise.
const defaultTraceCapacity = 8192

// DefaultOptions returns the configuration used across experiments.
func DefaultOptions() Options {
	return Options{
		Seed:                1,
		Fabric:              fabric.DefaultConfig(),
		Monitor:             monitor.DefaultOptions(),
		Anomaly:             anomaly.DefaultConfig(),
		EnableAnomaly:       true,
		Scheduler:           "topology-aware",
		Arbiter:             arbiter.DefaultConfig(),
		Cache:               cachesim.DefaultConfig(),
		Counters:            counters.DefaultConfig(),
		PathsPerDestination: 3,
		EnableTelemetry:     true,
		Telemetry: telemetry.PipelineConfig{
			Period:        250 * simtime.Microsecond,
			Placement:     telemetry.PlaceMemory,
			Collector:     "cpu0",
			StoreCapacity: 1 << 16,
		},
		TraceCapacity: defaultTraceCapacity,
	}
}

// Tenant is the manager's record of one admitted tenant.
type Tenant struct {
	ID          fabric.TenantID
	Targets     []intent.Target
	Assignments []sched.Assignment
	View        *vnet.View
}

// Manager is a manageable intra-host network over one host.
type Manager struct {
	opts      Options
	engine    *simtime.Engine
	topo      *topology.Topology
	fab       *fabric.Fabric
	mon       *monitor.Monitor
	platform  *anomaly.Platform
	bank      *counters.Bank
	ddio      *cachesim.Manager
	interp    *intent.Interpreter
	scheduler sched.Scheduler
	arb       *arbiter.Arbiter
	pipeline  *telemetry.Pipeline
	obsv      *obs.Obs

	tenants map[fabric.TenantID]*Tenant
	started bool

	// Cached self-observability handles.
	mAdmissions *obs.Counter
	mRejections *obs.Counter
	mEvictions  *obs.Counter
}

// New assembles a manager over the given topology.
func New(topo *topology.Topology, opts Options) (*Manager, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.PathsPerDestination <= 0 {
		opts.PathsPerDestination = 3
	}
	engine := simtime.NewEngine(opts.Seed)
	fab := fabric.New(topo, engine, opts.Fabric)
	mon, err := monitor.New(fab, opts.Monitor)
	if err != nil {
		return nil, err
	}
	platform, err := anomaly.New(fab, anomaly.DefaultPairs(topo), opts.Anomaly)
	if err != nil {
		return nil, err
	}
	bank, err := counters.NewBank(fab, opts.Counters)
	if err != nil {
		return nil, err
	}
	ddio, err := cachesim.NewManager(fab, opts.Cache)
	if err != nil {
		return nil, err
	}
	interp, err := intent.New(topo, opts.PathsPerDestination, fab)
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.New(opts.Scheduler)
	if err != nil {
		return nil, err
	}
	arb, err := arbiter.New(fab, opts.Arbiter)
	if err != nil {
		return nil, err
	}
	var pipeline *telemetry.Pipeline
	if opts.EnableTelemetry {
		pipeline, err = telemetry.NewPipeline(fab, telemetry.NewInterceptSource(fab), opts.Telemetry)
		if err != nil {
			return nil, err
		}
	}
	// Self-observability: one registry + event ring threaded through
	// every subsystem. The fabric, arbiter, platform and scheduler all
	// record into it; the HTTP API and the CLIs export it.
	traceCap := opts.TraceCapacity
	if traceCap == 0 {
		traceCap = defaultTraceCapacity
	}
	o := obs.New(traceCap)
	fab.SetObs(o)
	arb.SetObs(o)
	platform.SetObs(o)
	scheduler = sched.Instrument(scheduler, o, engine)
	m := &Manager{
		opts: opts, engine: engine, topo: topo, fab: fab,
		mon: mon, platform: platform, bank: bank, ddio: ddio,
		interp: interp, scheduler: scheduler, arb: arb, pipeline: pipeline,
		obsv:    o,
		tenants: make(map[fabric.TenantID]*Tenant),
		mAdmissions: o.Registry.Counter("ihnet_core_admissions_total",
			"Tenants admitted through compile -> schedule -> arbitrate."),
		mRejections: o.Registry.Counter("ihnet_core_rejections_total",
			"Tenant admissions rejected at any pipeline stage."),
		mEvictions: o.Registry.Counter("ihnet_core_evictions_total",
			"Tenants evicted."),
	}
	o.Registry.GaugeFunc("ihnet_trace_events_total",
		"Events ever recorded by the observability tracer.",
		func() float64 { return float64(o.Tracer.Total()) })
	o.Registry.GaugeFunc("ihnet_trace_events_dropped",
		"Trace events overwritten by ring wraparound.",
		func() float64 { return float64(o.Tracer.Dropped()) })
	return m, nil
}

// Start arms the monitoring sweep, the arbiter loop and (when enabled)
// the heartbeat mesh.
func (m *Manager) Start() error {
	if m.started {
		return fmt.Errorf("core: manager already started")
	}
	if err := m.mon.Start(); err != nil {
		return err
	}
	if err := m.arb.Start(); err != nil {
		return err
	}
	if m.opts.EnableAnomaly {
		if err := m.platform.Start(); err != nil {
			return err
		}
	}
	if m.pipeline != nil {
		if err := m.pipeline.Start(); err != nil {
			return err
		}
	}
	m.started = true
	return nil
}

// Stop halts all control loops.
func (m *Manager) Stop() {
	m.mon.Stop()
	m.arb.Stop()
	m.platform.Stop()
	if m.pipeline != nil {
		m.pipeline.Stop()
	}
	m.started = false
}

// Accessors for the subsystems; examples and the HTTP API use these.

// Engine returns the virtual-time engine.
func (m *Manager) Engine() *simtime.Engine { return m.engine }

// Topology returns the physical topology.
func (m *Manager) Topology() *topology.Topology { return m.topo }

// Fabric returns the substrate simulator.
func (m *Manager) Fabric() *fabric.Fabric { return m.fab }

// Monitor returns the usage/config monitor.
func (m *Manager) Monitor() *monitor.Monitor { return m.mon }

// Anomaly returns the heartbeat platform.
func (m *Manager) Anomaly() *anomaly.Platform { return m.platform }

// Counters returns the emulated hardware counter bank.
func (m *Manager) Counters() *counters.Bank { return m.bank }

// DDIO returns the cache model.
func (m *Manager) DDIO() *cachesim.Manager { return m.ddio }

// Interpreter returns the intent compiler.
func (m *Manager) Interpreter() *intent.Interpreter { return m.interp }

// Arbiter returns the run-time enforcer.
func (m *Manager) Arbiter() *arbiter.Arbiter { return m.arb }

// Scheduler returns the placement strategy in use.
func (m *Manager) Scheduler() sched.Scheduler { return m.scheduler }

// Telemetry returns the manager's telemetry pipeline, or nil when
// disabled. Its ring store backs history queries.
func (m *Manager) Telemetry() *telemetry.Pipeline { return m.pipeline }

// Obs returns the manager's self-observability substrate (metrics
// registry + event tracer). Never nil.
func (m *Manager) Obs() *obs.Obs { return m.obsv }

// Options returns the configuration the manager was built with.
// Checkpoint tooling (internal/snap) persists it so a restored host is
// reconstructed with bit-identical behaviour.
func (m *Manager) Options() Options { return m.opts }

// RunFor advances virtual time.
func (m *Manager) RunFor(d simtime.Duration) { m.engine.RunFor(d) }

// Admit runs the paper's compile -> schedule -> arbitrate pipeline for
// one tenant. Admission is all-or-nothing: if any target cannot be
// compiled or placed, nothing is reserved and the error says why. On
// success the tenant receives its virtualized view of the host.
func (m *Manager) Admit(tenant fabric.TenantID, targets []intent.Target) (*vnet.View, error) {
	return m.AdmitAvoiding(tenant, targets, nil)
}

// normalizeTargets stamps the tenant on each target and rejects
// mismatches.
func normalizeTargets(tenant fabric.TenantID, targets []intent.Target) error {
	if tenant == "" {
		return fmt.Errorf("core: empty tenant")
	}
	for i := range targets {
		if targets[i].Tenant == "" {
			targets[i].Tenant = tenant
		}
		if targets[i].Tenant != tenant {
			return fmt.Errorf("core: target %d belongs to %q, not %q",
				i, targets[i].Tenant, tenant)
		}
	}
	return nil
}

// filterAvoid drops candidate pathways traversing any avoided link in
// either direction. A pipe requirement whose candidate set empties out
// is an error: the intent cannot be satisfied under the constraint.
// Hose requirements have no pathway choice and pass through untouched.
func filterAvoid(reqs []intent.Requirement, avoid []topology.LinkID) error {
	if len(avoid) == 0 {
		return nil
	}
	banned := make(map[topology.LinkID]bool, len(avoid))
	for _, id := range avoid {
		banned[id] = true
	}
	for i := range reqs {
		if len(reqs[i].Candidates) == 0 {
			continue
		}
		kept := reqs[i].Candidates[:0]
		for _, p := range reqs[i].Candidates {
			ok := true
			for _, l := range p.Links {
				if banned[l.ID] || banned[l.Reverse] {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("core: %s: no pathway avoids %v", reqs[i].Target, avoid)
		}
		reqs[i].Candidates = kept
	}
	return nil
}

// PlanAdmission dry-runs the compile -> schedule half of admission
// under an avoid constraint, without reserving anything: the
// remediation planner's feasibility probe. The tenant may or may not
// be currently admitted; planning is against current headroom, which
// is conservative for a migrate (the tenant's own reservation is still
// counted against free capacity).
func (m *Manager) PlanAdmission(tenant fabric.TenantID, targets []intent.Target, avoid []topology.LinkID) ([]sched.Assignment, error) {
	if err := normalizeTargets(tenant, targets); err != nil {
		return nil, err
	}
	reqs, err := m.interp.CompileAll(targets)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	if err := filterAvoid(reqs, avoid); err != nil {
		return nil, err
	}
	usage := sched.Usage{Capacity: m.arb.CapacityMap(), Free: m.arb.FreeMap()}
	assignments := m.scheduler.Schedule(reqs, usage)
	for _, a := range assignments {
		if !a.Admitted {
			return assignments, fmt.Errorf("core: plan failed for %s: %s", a.Req.Target, a.Reason)
		}
	}
	return assignments, nil
}

// AdmitAvoiding is Admit under a pathway constraint: candidates
// traversing any avoided link (either direction) are excluded before
// scheduling. The remediation controller re-places tenants off
// localized suspects with it.
func (m *Manager) AdmitAvoiding(tenant fabric.TenantID, targets []intent.Target, avoid []topology.LinkID) (*vnet.View, error) {
	if err := normalizeTargets(tenant, targets); err != nil {
		return nil, err
	}
	if _, ok := m.tenants[tenant]; ok {
		return nil, fmt.Errorf("core: tenant %q already admitted", tenant)
	}
	// Compile.
	reqs, err := m.interp.CompileAll(targets)
	if err != nil {
		m.mRejections.Inc()
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	if err := filterAvoid(reqs, avoid); err != nil {
		m.mRejections.Inc()
		return nil, err
	}
	// Schedule against current headroom.
	usage := sched.Usage{Capacity: m.arb.CapacityMap(), Free: m.arb.FreeMap()}
	assignments := m.scheduler.Schedule(reqs, usage)
	merged := resmodel.NewReservation()
	for _, a := range assignments {
		if !a.Admitted {
			m.mRejections.Inc()
			return nil, fmt.Errorf("core: admission failed for %s: %s", a.Req.Target, a.Reason)
		}
		merged.Merge(a.Reservation)
	}
	// Arbitrate.
	if err := m.arb.Install(tenant, merged); err != nil {
		m.mRejections.Inc()
		return nil, fmt.Errorf("core: arbitrate: %w", err)
	}
	view, err := vnet.Build(m.topo, tenant, merged)
	if err != nil {
		m.arb.Remove(tenant)
		m.mRejections.Inc()
		return nil, err
	}
	m.tenants[tenant] = &Tenant{
		ID: tenant, Targets: targets, Assignments: assignments, View: view,
	}
	m.mAdmissions.Inc()
	if m.obsv.Tracer.Enabled() {
		m.obsv.Tracer.Emit(obs.Event{
			Kind: obs.KindFlowAdmit, Virtual: m.engine.Now(),
			Subject: string(tenant),
			Detail:  fmt.Sprintf("%d target(s) admitted", len(targets)),
			Value:   float64(len(targets)),
		})
	}
	return view, nil
}

// Evict releases a tenant's guarantees.
func (m *Manager) Evict(tenant fabric.TenantID) error {
	if _, ok := m.tenants[tenant]; !ok {
		return fmt.Errorf("core: unknown tenant %q", tenant)
	}
	m.arb.Remove(tenant)
	delete(m.tenants, tenant)
	m.mEvictions.Inc()
	if m.obsv.Tracer.Enabled() {
		m.obsv.Tracer.Emit(obs.Event{
			Kind: obs.KindTenantEvict, Virtual: m.engine.Now(),
			Subject: string(tenant),
		})
	}
	return nil
}

// Tenant returns the record of an admitted tenant, or nil.
func (m *Manager) Tenant(tenant fabric.TenantID) *Tenant { return m.tenants[tenant] }

// Tenants returns admitted tenants sorted by ID.
func (m *Manager) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Migrate re-admits a tenant's intents on another host's manager —
// the tenant's targets, not its link-level reservations, move, which
// is exactly the reconfiguration-free migration the virtual
// abstraction promises. On success the tenant is evicted here and its
// new view (on the destination host) is returned.
func (m *Manager) Migrate(tenant fabric.TenantID, dst *Manager) (*vnet.View, error) {
	rec, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("core: unknown tenant %q", tenant)
	}
	if dst == m {
		return nil, fmt.Errorf("core: migration to the same host")
	}
	view, err := dst.Admit(tenant, rec.Targets)
	if err != nil {
		return nil, fmt.Errorf("core: destination rejected %q: %w", tenant, err)
	}
	if err := m.Evict(tenant); err != nil {
		return nil, err
	}
	return view, nil
}
