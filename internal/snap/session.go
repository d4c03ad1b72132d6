package snap

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/vnet"
	"repro/internal/workload"
)

// Config identifies everything needed to reconstruct a host from
// scratch: the topology (a preset name, or an embedded description for
// custom hosts) and the full manager options, seed included.
type Config struct {
	// Preset names a topology.Presets entry. Takes precedence over
	// Topology when both are set.
	Preset string `json:"preset,omitempty"`
	// Topology is a topology.FromJSON document for non-preset hosts.
	Topology json.RawMessage `json:"topology,omitempty"`
	// Options is the manager configuration; equal options and equal
	// journals give bit-identical runs.
	Options core.Options `json:"options"`
}

// buildTopology resolves the config to a concrete topology.
func (c Config) buildTopology() (*topology.Topology, error) {
	if c.Preset != "" {
		build, ok := topology.Presets[c.Preset]
		if !ok {
			return nil, fmt.Errorf("snap: unknown preset %q", c.Preset)
		}
		return build(), nil
	}
	if len(c.Topology) > 0 {
		return topology.FromJSON(bytes.NewReader(c.Topology))
	}
	return nil, fmt.Errorf("snap: config names neither a preset nor a topology")
}

// EntrySink receives every command a session journals, in order, at
// the moment it is appended — the hook a durable store implements to
// shadow the in-memory journal on disk. The sink sees the raw
// per-command entries: advances that coalesce in the in-memory journal
// still reach the sink individually, and recovery re-folds them through
// the same append path, so replay semantics are unchanged. Entries
// carry no sequence number (the journal assigns those on append); a
// durable sink keeps its own record positions.
//
// Replayed entries are never forwarded — replay reconstructs state
// that the sink, by definition, already holds — so a sink must be
// attached only to live sessions (after restore, not during).
type EntrySink interface {
	AppendEntry(Entry) error
}

// Session is a running manager whose externally issued commands are
// recorded into an append-only journal, making the whole run
// reproducible: Snapshot captures it, Restore and Replay rebuild it.
type Session struct {
	cfg     Config
	mgr     *core.Manager
	journal Journal
	sink    EntrySink // nil unless a durable store is attached
	kvs     map[string]*workload.KVClient
	// nextSpan, when set, is consumed by the next journaled command as
	// its span ID (see SetSpan).
	nextSpan string

	// Snapshot observability, registered on the manager's registry.
	mSnapshots     *obs.Counter
	mRestores      *obs.Counter
	mSnapshotBytes *obs.Gauge
	hEncodeSeconds *obs.Histogram
	hDecodeSeconds *obs.Histogram
}

// NewSession builds and starts a managed host from the config with an
// empty journal.
func NewSession(cfg Config) (*Session, error) {
	topo, err := cfg.buildTopology()
	if err != nil {
		return nil, err
	}
	mgr, err := core.New(topo, cfg.Options)
	if err != nil {
		return nil, err
	}
	if err := mgr.Start(); err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, mgr: mgr, kvs: make(map[string]*workload.KVClient)}
	reg := mgr.Obs().Registry
	s.mSnapshots = reg.Counter("ihnet_snap_snapshots_total",
		"Snapshots encoded from this session.")
	s.mRestores = reg.Counter("ihnet_snap_restores_total",
		"Times this session was reconstructed from a snapshot.")
	s.mSnapshotBytes = reg.Gauge("ihnet_snap_snapshot_bytes",
		"Size of the most recent encoded snapshot.")
	s.hEncodeSeconds = reg.Histogram("ihnet_snap_encode_seconds",
		"Wall-clock time to export state and encode a snapshot.")
	s.hDecodeSeconds = reg.Histogram("ihnet_snap_decode_seconds",
		"Wall-clock time to decode, replay and verify a snapshot.")
	return s, nil
}

// Manager returns the underlying live manager. Callers must not
// mutate simulation state through it directly — unjournaled commands
// make the session unreproducible; use the Session methods.
func (s *Session) Manager() *core.Manager { return s.mgr }

// Config returns the reconstruction config.
func (s *Session) Config() Config { return s.cfg }

// Journal returns the recorded command log.
func (s *Session) Journal() Journal { return s.journal }

// Now returns the session's virtual time.
func (s *Session) Now() simtime.Time { return s.mgr.Engine().Now() }

// KV returns the KV workload client started for a tenant, or nil.
func (s *Session) KV(tenant string) *workload.KVClient { return s.kvs[tenant] }

// SetSink attaches (or, with nil, detaches) a durable entry sink.
// Attach only to a live session: during Replay/Restore the entries
// being applied came *from* the store, and forwarding them back would
// double-write the log.
func (s *Session) SetSink(sink EntrySink) { s.sink = sink }

// record appends a journaled command to the in-memory journal and
// forwards it to the durable sink, if one is attached. A sink failure
// is a command failure: the state change already happened (apply runs
// first), but the caller learns the run is no longer durably
// reproducible.
func (s *Session) record(e Entry) error {
	s.journal.append(e)
	if s.sink == nil {
		return nil
	}
	if err := s.sink.AppendEntry(e); err != nil {
		return fmt.Errorf("snap: durable append: %w", err)
	}
	return nil
}

// SetSpan sets the span ID the next journaled command will carry,
// instead of the automatic "j<seq>". The HTTP layer passes its
// request ID here so one identifier threads access log -> journal ->
// trace events. One-shot: consumed by the next command.
func (s *Session) SetSpan(id string) { s.nextSpan = id }

// entry returns a journal entry stamped with the current virtual time
// and a span ID. Spans default to "j<seq>" — a pure function of
// journal position, so replayed and parallel-fleet runs agree. An
// advance that will coalesce into the previous advance inherits its
// span, keeping streamed events and the stored journal consistent.
func (s *Session) entry(kind EntryKind) Entry {
	e := Entry{AtNs: int64(s.mgr.Engine().Now()), Kind: kind}
	n := len(s.journal.Entries)
	switch {
	case s.nextSpan != "":
		e.Span = s.nextSpan
		s.nextSpan = ""
	case kind == KindAdvance && n > 0 && s.journal.Entries[n-1].Kind == KindAdvance:
		e.Span = s.journal.Entries[n-1].Span
	default:
		e.Span = fmt.Sprintf("j%d", n)
	}
	return e
}

// Advance moves virtual time forward by d, journaled.
func (s *Session) Advance(d simtime.Duration) error {
	if d < 0 {
		return fmt.Errorf("snap: negative advance")
	}
	return s.AdvanceTo(s.mgr.Engine().Now().Add(d))
}

// AdvanceTo moves virtual time to t (RunUntil semantics), journaled.
func (s *Session) AdvanceTo(t simtime.Time) error {
	e := s.entry(KindAdvance)
	e.ToNs = int64(t)
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// Admit journals and runs the compile -> schedule -> arbitrate
// pipeline for one tenant, returning the admitted tenant's virtual
// view. Failed admissions are not journaled: admission is
// all-or-nothing, so a rejection leaves no state to reproduce.
func (s *Session) Admit(tenant string, targets []intent.Target) (*vnet.View, error) {
	return s.AdmitAvoiding(tenant, targets, nil)
}

// AdmitAvoiding is Admit with an avoid set: pathways traversing any of
// the named links (either direction) are excluded from scheduling.
// The remediation controller uses it to re-place a tenant off a
// localized suspect; the avoid set is journaled with the admit so
// replay re-runs the same constrained schedule.
func (s *Session) AdmitAvoiding(tenant string, targets []intent.Target, avoid []string) (*vnet.View, error) {
	e := s.entry(KindAdmit)
	e.Tenant = tenant
	e.Targets = make([]Target, len(targets))
	for i, t := range targets {
		e.Targets[i] = Target{
			Src: string(t.Src), Dst: string(t.Dst),
			RateBps: float64(t.Rate), MaxLatencyNs: int64(t.MaxLatency),
		}
	}
	e.Avoid = append([]string(nil), avoid...)
	if err := s.apply(e); err != nil {
		return nil, err
	}
	if err := s.record(e); err != nil {
		return nil, err
	}
	return s.mgr.Tenant(fabric.TenantID(tenant)).View, nil
}

// Evict journals and releases a tenant.
func (s *Session) Evict(tenant string) error {
	e := s.entry(KindEvict)
	e.Tenant = tenant
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// DegradeLink journals and injects a silent link degradation.
func (s *Session) DegradeLink(link string, lossFrac float64, extra simtime.Duration) error {
	e := s.entry(KindDegrade)
	e.Link, e.LossFrac, e.ExtraNs = link, lossFrac, int64(extra)
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// FailLink journals and hard-fails a directed link.
func (s *Session) FailLink(link string) error {
	e := s.entry(KindFail)
	e.Link = link
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// RestoreLink journals and heals a directed link.
func (s *Session) RestoreLink(link string) error {
	e := s.entry(KindRestoreLink)
	e.Link = link
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// SetComponentConfig journals and applies one configuration change —
// the silent-reconfiguration fault the monitor's drift detector
// watches for.
func (s *Session) SetComponentConfig(component, key, value string) error {
	e := s.entry(KindSetConfig)
	e.Component, e.Key, e.Value = component, key, value
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// StartWorkload journals and starts a workload generator: kind is one
// of "kv", "ml", "loopback", "scan". Src/dst are optional overrides
// with workload-specific meaning (kv: client/server, ml: memory/GPU,
// loopback: NIC/DIMM, scan: SSD/DIMM).
func (s *Session) StartWorkload(kind, tenant, src, dst string) error {
	e := s.entry(KindWorkload)
	e.Workload, e.Tenant, e.Src, e.Dst = kind, tenant, src, dst
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// SetTenantCap journals and installs a per-tenant rate cap on one
// directed link; a negative capBps clears the cap instead.
func (s *Session) SetTenantCap(link, tenant string, capBps float64) error {
	e := s.entry(KindSetCap)
	e.Link, e.Tenant, e.CapBps = link, tenant, capBps
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// BatchOpResult reports the outcome of one op in an ApplyBatch call:
// Status is "ok", "failed" (the first op that errored), or "skipped"
// (ops after the failure, never attempted).
type BatchOpResult struct {
	Kind   EntryKind `json:"kind"`
	Status string    `json:"status"`
	Error  string    `json:"error,omitempty"`
}

// ApplyBatch journals and applies a group of mutation ops as one
// entry. Every op lands under a single fabric batch, so the solver
// settles exactly once for the whole group, no matter how many ops it
// carries — this is the transactional write path bursty clients use
// instead of N round-trips and N recomputes.
//
// Ops are validated structurally up front (a malformed batch changes
// nothing) and then applied in order; the first failure stops the
// batch. Ops already applied remain — the journal records exactly the
// applied prefix, keeping replay faithful — and the per-op results
// tell the caller precisely how far the batch got.
func (s *Session) ApplyBatch(ops []Entry) ([]BatchOpResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("snap: empty batch")
	}
	if err := checkBatchOps(ops); err != nil {
		return nil, fmt.Errorf("snap: %s", err)
	}
	e := s.entry(KindBatch)
	tr := s.mgr.Obs().Tracer
	tr.BeginSpan(e.Span)
	results := make([]BatchOpResult, len(ops))
	applied := 0
	var failErr error
	s.mgr.Fabric().Batch(func() {
		for i, op := range ops {
			results[i].Kind = op.Kind
			if failErr != nil {
				results[i].Status = "skipped"
				continue
			}
			if err := s.applyOp(op); err != nil {
				results[i].Status = "failed"
				results[i].Error = err.Error()
				failErr = fmt.Errorf("snap: batch op %d (%s): %w", i, op.Kind, err)
				continue
			}
			results[i].Status = "ok"
			applied++
		}
	})
	tr.EndSpan()
	if applied > 0 {
		e.Ops = normalizeOps(ops[:applied])
		if err := s.record(e); err != nil && failErr == nil {
			failErr = err
		}
	}
	return results, failErr
}

// normalizeOps copies ops for journal storage with the per-entry
// journal metadata zeroed: inside a batch, position and span belong to
// the enclosing entry.
func normalizeOps(ops []Entry) []Entry {
	out := make([]Entry, len(ops))
	for i, op := range ops {
		op.Seq, op.AtNs, op.Span = 0, 0, ""
		out[i] = op
	}
	return out
}

// probeBudget bounds how far a diagnostic probe may drive virtual
// time: 1000 slices of 10 us, matching the HTTP API's historical
// behaviour.
const (
	probeSlices = 1000
	probeSlice  = 10 * simtime.Microsecond
)

// Ping journals and runs an intra-host ping, advancing virtual time
// until the probe completes (bounded). The time advancement is part of
// the entry's replay semantics.
func (s *Session) Ping(src, dst string) (diag.PingReport, error) {
	e := s.entry(KindPing)
	e.Src, e.Dst = src, dst
	p, err := s.probe(e)
	if err != nil {
		return diag.PingReport{}, err
	}
	return p.ping, nil
}

// Trace journals and runs an intra-host traceroute (see Ping for the
// time-advancement contract).
func (s *Session) Trace(src, dst string) (diag.TraceReport, error) {
	e := s.entry(KindTrace)
	e.Src, e.Dst = src, dst
	p, err := s.probe(e)
	if err != nil {
		return diag.TraceReport{}, err
	}
	return p.trace, nil
}

// Perf journals and runs an intra-host bandwidth probe (see Ping for
// the time-advancement contract).
func (s *Session) Perf(src, dst, tenant string) (diag.PerfReport, error) {
	e := s.entry(KindPerf)
	e.Src, e.Dst, e.Tenant = src, dst, tenant
	p, err := s.probe(e)
	if err != nil {
		return diag.PerfReport{}, err
	}
	return p.perf, nil
}

// probe runs a live diagnostic probe under its entry's span: start it,
// journal it, then drive it to completion.
func (s *Session) probe(e Entry) (*probeRun, error) {
	tr := s.mgr.Obs().Tracer
	tr.BeginSpan(e.Span)
	defer tr.EndSpan()
	p, err := s.startProbe(e)
	if err != nil {
		return nil, err
	}
	// Probe traffic is in flight: journal even on timeout.
	if err := s.record(e); err != nil {
		return nil, err
	}
	if !s.runProbe(p) {
		return nil, fmt.Errorf("snap: %s %s->%s did not complete", e.Kind, e.Src, e.Dst)
	}
	return p, nil
}

// ReplayEntry re-executes one journaled command against this session.
// It is the single-entry form of Replay, exported so harnesses (the
// chaos invariant checker) can interleave their own checks between
// entries while staying on the exact replay path.
func (s *Session) ReplayEntry(e Entry) error { return s.replayEntry(e) }

// replayEntry re-executes one journaled command: bring the clock to
// the entry's issue time, apply it through the shared path, and record
// it so the rebuilt session continues journaling seamlessly.
//
// An entry issued at t applies before the engine's own events due at
// t (simtime.Engine.RunBefore): the op-at-t rule. A live session
// stamps each entry with its clock and journals every advance, so a
// recorded entry never lies ahead of the clock and the rule changes
// nothing for live journals. It decides the order only for journals
// with gaps — drills, minimized chaos journals, hand-written ones —
// where an op at t then lands ahead of, say, the heartbeat round due
// at t, as a callback scheduled for t in advance would.
func (s *Session) replayEntry(e Entry) error {
	if at := simtime.Time(e.AtNs); at > s.mgr.Engine().Now() {
		s.mgr.Engine().RunBefore(at)
	}
	if err := s.apply(e); err != nil {
		return err
	}
	return s.record(e)
}

// apply executes one entry against the live manager without recording
// it. It is the single execution path shared by the live command
// methods and by Replay, which is what makes record and replay agree.
// The entry's span brackets execution, so every trace event emitted by
// the command's effects — live or replayed — carries it, and the span
// wall duration lands in cmd_effect_latency_us.
func (s *Session) apply(e Entry) error {
	tr := s.mgr.Obs().Tracer
	tr.BeginSpan(e.Span)
	defer tr.EndSpan()
	if e.Kind == KindBatch {
		return s.applyBatchOps(e.Ops)
	}
	return s.applyOp(e)
}

// applyBatchOps applies a batch's ops in order under one fabric batch,
// so the whole group settles the solver exactly once. An op error
// aborts the remainder; callers decide what to journal (Replay never
// sees a failing batch — ApplyBatch records only the applied prefix).
func (s *Session) applyBatchOps(ops []Entry) error {
	var err error
	s.mgr.Fabric().Batch(func() {
		for i, op := range ops {
			if opErr := s.applyOp(op); opErr != nil {
				err = fmt.Errorf("batch op %d (%s): %w", i, op.Kind, opErr)
				return
			}
		}
	})
	return err
}

// applyOp executes one non-batch entry. Span handling lives in apply:
// ops inside a batch share the enclosing entry's span.
func (s *Session) applyOp(e Entry) error {
	fab := s.mgr.Fabric()
	switch e.Kind {
	case KindAdvance:
		s.mgr.Engine().RunUntil(simtime.Time(e.ToNs))
		return nil
	case KindAdmit:
		targets := make([]intent.Target, len(e.Targets))
		for i, t := range e.Targets {
			targets[i] = intent.Target{
				Tenant: fabric.TenantID(e.Tenant),
				Src:    topology.CompID(t.Src), Dst: topology.CompID(t.Dst),
				Rate:       topology.Rate(t.RateBps),
				MaxLatency: simtime.Duration(t.MaxLatencyNs),
			}
		}
		avoid := make([]topology.LinkID, len(e.Avoid))
		for i, l := range e.Avoid {
			avoid[i] = topology.LinkID(l)
		}
		_, err := s.mgr.AdmitAvoiding(fabric.TenantID(e.Tenant), targets, avoid)
		return err
	case KindEvict:
		return s.mgr.Evict(fabric.TenantID(e.Tenant))
	case KindDegrade:
		return fab.DegradeLink(topology.LinkID(e.Link), e.LossFrac, simtime.Duration(e.ExtraNs))
	case KindFail:
		return fab.FailLink(topology.LinkID(e.Link))
	case KindRestoreLink:
		return fab.RestoreLink(topology.LinkID(e.Link))
	case KindSetConfig:
		c := s.mgr.Topology().Component(topology.CompID(e.Component))
		if c == nil {
			return fmt.Errorf("snap: unknown component %q", e.Component)
		}
		c.SetConfig(e.Key, e.Value)
		return nil
	case KindWorkload:
		return s.applyWorkload(e)
	case KindPing, KindTrace, KindPerf:
		return s.applyProbe(e)
	case KindSetCap:
		if e.CapBps < 0 {
			return fab.ClearTenantCap(topology.LinkID(e.Link), fabric.TenantID(e.Tenant))
		}
		return fab.SetTenantCap(topology.LinkID(e.Link), fabric.TenantID(e.Tenant), topology.Rate(e.CapBps))
	}
	return fmt.Errorf("snap: unknown entry kind %q", e.Kind)
}

// applyWorkload starts the journaled workload. Src and dst default
// per kind (see StartWorkload).
func (s *Session) applyWorkload(e Entry) error {
	fab := s.mgr.Fabric()
	tenant := fabric.TenantID(e.Tenant)
	switch e.Workload {
	case "kv":
		cfg := workload.DefaultKVConfig(tenant)
		if e.Src != "" {
			cfg.Client = topology.CompID(e.Src)
		}
		if e.Dst != "" {
			cfg.Server = topology.CompID(e.Dst)
		}
		kv, err := workload.StartKV(fab, cfg)
		if err != nil {
			return err
		}
		s.kvs[e.Tenant] = kv
		return nil
	case "ml":
		cfg := workload.DefaultMLConfig(tenant)
		if e.Src != "" {
			cfg.Memory = topology.CompID(e.Src)
		}
		if e.Dst != "" {
			cfg.GPU = topology.CompID(e.Dst)
		}
		_, err := workload.StartML(fab, cfg)
		return err
	case "loopback":
		nic, dimm := topology.CompID("nic0"), topology.CompID("socket0.dimm0_0")
		if e.Src != "" {
			nic = topology.CompID(e.Src)
		}
		if e.Dst != "" {
			dimm = topology.CompID(e.Dst)
		}
		_, err := workload.StartLoopback(fab, tenant, nic, dimm)
		return err
	case "scan":
		ssd, dimm := topology.CompID("ssd0"), topology.CompID("socket0.dimm0_0")
		if e.Src != "" {
			ssd = topology.CompID(e.Src)
		}
		if e.Dst != "" {
			dimm = topology.CompID(e.Dst)
		}
		_, err := workload.StartScan(fab, tenant, ssd, dimm, 4<<20)
		return err
	}
	return fmt.Errorf("snap: unknown workload kind %q", e.Workload)
}

// probeRun is a started diagnostic probe: done flips when it
// completes, and the report of its kind holds the result.
type probeRun struct {
	done  bool
	ping  diag.PingReport
	trace diag.TraceReport
	perf  diag.PerfReport
}

// startProbe starts the probe a ping, trace or perf entry names.
func (s *Session) startProbe(e Entry) (*probeRun, error) {
	fab := s.mgr.Fabric()
	src, dst := topology.CompID(e.Src), topology.CompID(e.Dst)
	p := &probeRun{}
	var err error
	switch e.Kind {
	case KindPing:
		_, err = diag.StartPing(fab, src, dst, diag.DefaultPingOptions(),
			func(r diag.PingReport) { p.ping, p.done = r, true })
	case KindTrace:
		_, err = diag.StartTrace(fab, src, dst, 64,
			func(r diag.TraceReport) { p.trace, p.done = r, true })
	case KindPerf:
		_, err = diag.StartPerf(fab, src, dst,
			diag.PerfOptions{Duration: 200 * simtime.Microsecond, Tenant: fabric.TenantID(e.Tenant)},
			func(r diag.PerfReport) { p.perf, p.done = r, true })
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// runProbe advances virtual time in bounded slices until the probe
// completes, and reports whether it did.
func (s *Session) runProbe(p *probeRun) bool {
	for i := 0; i < probeSlices && !p.done; i++ {
		s.mgr.RunFor(probeSlice)
	}
	return p.done
}

// applyProbe re-runs a journaled diagnostic probe: the same start and
// bounded run as the live Ping/Trace/Perf methods. A probe that timed
// out live times out identically here; the advanced time is what
// matters for determinism.
func (s *Session) applyProbe(e Entry) error {
	p, err := s.startProbe(e)
	if err != nil {
		return err
	}
	s.runProbe(p)
	return nil
}
