package fabric

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// fabricMetrics caches the fabric's metric handles so hot-path updates
// are single atomic operations with no registry lookups.
type fabricMetrics struct {
	tracer *obs.Tracer

	flowsStarted   *obs.Counter
	flowsCompleted *obs.Counter
	flowsRemoved   *obs.Counter
	flowsActive    *obs.Gauge
	txSent         *obs.Counter
	txCompleted    *obs.Counter
	txLost         *obs.Counter
	recomputes     *obs.Counter
	recomputeNs    *obs.Histogram
	linkFails      *obs.Counter
	linkDegrades   *obs.Counter
	linkRestores   *obs.Counter

	solverComponents       *obs.Gauge
	solverWorkers          *obs.Gauge
	solverSolves           *obs.Counter
	solverNoop             *obs.Counter
	solverParallel         *obs.Counter
	solverComponentsSolved *obs.Counter
	solverFlowsSolved      *obs.Counter
	solverFlowsSkipped     *obs.Counter
	solverRounds           *obs.Counter
	solverBatches          *obs.Counter
	solverBatchedOps       *obs.Counter
}

// SetObs attaches an observability substrate to the fabric. Pass nil
// to detach (instrumentation reverts to no-ops). Metric handles are
// resolved once here; the simulation hot path then pays one pointer
// check plus atomic updates per event.
func (f *Fabric) SetObs(o *obs.Obs) {
	if o == nil {
		f.met = nil
		return
	}
	r := o.Registry
	f.met = &fabricMetrics{
		tracer: o.Tracer,
		flowsStarted: r.Counter("ihnet_fabric_flows_started_total",
			"Flows installed on the fabric."),
		flowsCompleted: r.Counter("ihnet_fabric_flows_completed_total",
			"Sized flows that finished their transfer."),
		flowsRemoved: r.Counter("ihnet_fabric_flows_removed_total",
			"Flows removed before completion."),
		flowsActive: r.Gauge("ihnet_fabric_flows_active",
			"Flows currently installed on the fabric."),
		txSent: r.Counter("ihnet_fabric_tx_sent_total",
			"Transactions injected (DMA, RDMA verbs, probes, heartbeats)."),
		txCompleted: r.Counter("ihnet_fabric_tx_completed_total",
			"Transactions delivered end to end."),
		txLost: r.Counter("ihnet_fabric_tx_lost_total",
			"Transactions lost at a failed link."),
		recomputes: r.Counter("ihnet_fabric_recompute_total",
			"Global weighted max-min rate recomputations."),
		recomputeNs: r.Histogram("ihnet_fabric_recompute_duration_ns",
			"Wall-clock cost of one max-min recomputation, nanoseconds."),
		linkFails: r.Counter("ihnet_fabric_link_failures_total",
			"Hard link failures injected."),
		linkDegrades: r.Counter("ihnet_fabric_link_degradations_total",
			"Silent link degradations injected."),
		linkRestores: r.Counter("ihnet_fabric_link_restores_total",
			"Links restored to health (failure or degradation cleared)."),
		solverComponents: r.Gauge("ihnet_fabric_solver_components",
			"Independent constraint-graph components in the fabric."),
		solverWorkers: r.Gauge("ihnet_fabric_solver_workers",
			"Worker goroutines the component solver would use."),
		solverSolves: r.Counter("ihnet_fabric_solver_solves_total",
			"Rate recomputations that ran the component solver."),
		solverNoop: r.Counter("ihnet_fabric_solver_noop_total",
			"Rate recomputations skipped: no component was dirty."),
		solverParallel: r.Counter("ihnet_fabric_solver_parallel_solves_total",
			"Solves dispatched to the worker pool."),
		solverComponentsSolved: r.Counter("ihnet_fabric_solver_components_solved_total",
			"Dirty components re-solved."),
		solverFlowsSolved: r.Counter("ihnet_fabric_solver_flows_solved_total",
			"Flows whose rate was recomputed (members of dirty components)."),
		solverFlowsSkipped: r.Counter("ihnet_fabric_solver_flows_skipped_total",
			"Flows untouched by a solve because their component was clean."),
		solverRounds: r.Counter("ihnet_fabric_solver_rounds_total",
			"Water-filling rounds executed across all solved components."),
		solverBatches: r.Counter("ihnet_fabric_solver_batches_total",
			"Mutation batches settled with a single recomputation."),
		solverBatchedOps: r.Counter("ihnet_fabric_solver_batched_mutations_total",
			"Individual mutations coalesced inside batches."),
	}
}

// observedComputeRates wraps computeRates with counter, wall-clock
// histogram and trace instrumentation.
func (f *Fabric) observedComputeRates() {
	if f.met == nil {
		f.computeRates()
		return
	}
	before := f.sc
	start := time.Now()
	f.computeRates()
	elapsed := time.Since(start)
	f.met.recomputes.Inc()
	f.met.recomputeNs.Observe(float64(elapsed.Nanoseconds()))
	after := f.sc
	f.met.solverSolves.Add(after.solves - before.solves)
	f.met.solverNoop.Add(after.noopSolves - before.noopSolves)
	f.met.solverParallel.Add(after.parallelSolves - before.parallelSolves)
	f.met.solverComponentsSolved.Add(after.componentsSolved - before.componentsSolved)
	f.met.solverFlowsSolved.Add(after.flowsSolved - before.flowsSolved)
	f.met.solverFlowsSkipped.Add(after.flowsSkipped - before.flowsSkipped)
	f.met.solverRounds.Add(after.rounds - before.rounds)
	f.met.solverComponents.Set(float64(f.liveComponents()))
	f.met.solverWorkers.Set(float64(f.solverWorkers()))
	if f.met.tracer.Enabled() {
		f.met.tracer.Emit(obs.Event{
			Kind:    obs.KindRateRecompute,
			Virtual: f.engine.Now(),
			Value:   float64(len(f.flows)),
			WallDur: elapsed,
		})
	}
}

// traceFlow emits one flow lifecycle event.
func (f *Fabric) traceFlow(kind obs.EventKind, fl *Flow) {
	if f.met == nil || !f.met.tracer.Enabled() {
		return
	}
	f.met.tracer.Emit(obs.Event{
		Kind:    kind,
		Virtual: f.engine.Now(),
		Subject: "flow:" + strconv.FormatUint(uint64(fl.ID), 10),
		Detail:  string(fl.Tenant) + " " + fl.Path.String(),
		Value:   float64(fl.rate),
	})
}
