package httpapi

import (
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Batched mutations and solver introspection.
//
// POST /batch on a host is the burst-shaped write path: a typed
// multi-op envelope whose ops all land under one fabric batch, so the
// solver settles exactly once for the whole group instead of once per
// op.
// GET /fabric/solver exposes the host's component-solver internals
// (partition shape, dirty-region accounting, batch coalescing); GET
// /fleet/fabric/solver rolls them up across hosts.

// journalTargets converts API targets to journal form.
func journalTargets(ts []api.Target) []snap.Target {
	out := make([]snap.Target, len(ts))
	for i, t := range ts {
		out[i] = snap.Target{
			Src: t.Src, Dst: t.Dst,
			RateBps:      float64(topology.Gbps(t.RateGbps)),
			MaxLatencyNs: t.MaxLatNs,
		}
	}
	return out
}

// expandBatchOp lowers one API op to its journal ops. Migrate expands
// to evict + re-admit; everything else maps one-to-one.
func expandBatchOp(op api.BatchOp) ([]snap.Entry, error) {
	switch op.Op {
	case "admit":
		return []snap.Entry{{Kind: snap.KindAdmit, Tenant: op.Tenant,
			Targets: journalTargets(op.Targets), Avoid: op.Avoid}}, nil
	case "evict":
		return []snap.Entry{{Kind: snap.KindEvict, Tenant: op.Tenant}}, nil
	case "migrate":
		return []snap.Entry{
			{Kind: snap.KindEvict, Tenant: op.Tenant},
			{Kind: snap.KindAdmit, Tenant: op.Tenant,
				Targets: journalTargets(op.Targets), Avoid: op.Avoid},
		}, nil
	case "set-cap":
		if op.CapBps < 0 {
			return nil, fmt.Errorf("set-cap needs a non-negative cap_bps (use clear-cap to remove)")
		}
		return []snap.Entry{{Kind: snap.KindSetCap, Link: op.Link, Tenant: op.Tenant,
			CapBps: op.CapBps}}, nil
	case "clear-cap":
		return []snap.Entry{{Kind: snap.KindSetCap, Link: op.Link, Tenant: op.Tenant,
			CapBps: -1}}, nil
	case "degrade":
		return []snap.Entry{{Kind: snap.KindDegrade, Link: op.Link,
			LossFrac: op.LossFrac, ExtraNs: op.ExtraNs}}, nil
	case "fail":
		return []snap.Entry{{Kind: snap.KindFail, Link: op.Link}}, nil
	case "restore-link":
		return []snap.Entry{{Kind: snap.KindRestoreLink, Link: op.Link}}, nil
	case "set-config":
		return []snap.Entry{{Kind: snap.KindSetConfig, Component: op.Component,
			Key: op.Key, Value: op.Value}}, nil
	case "workload":
		return []snap.Entry{{Kind: snap.KindWorkload, Workload: op.Workload,
			Tenant: op.Tenant, Src: op.Src, Dst: op.Dst}}, nil
	}
	return nil, fmt.Errorf("unknown batch op %q", op.Op)
}

// postBatch applies a typed multi-op mutation envelope as one journal
// entry and one solver settle. The response carries a per-op result
// array aligned with the request ops (a migrate folds its two journal
// ops into one result) plus the observed settle count, so clients can
// see the coalescing they paid for. Partial application — the first
// failing op aborts the rest — comes back as 409 with the same result
// array inside the error envelope's details.
func postBatch(r *http.Request, h *fleet.Host) (api.BatchResult, error) {
	var req api.Batch
	if err := decodeBody(r, &req); err != nil {
		return api.BatchResult{}, err
	}
	if len(req.Ops) == 0 {
		return api.BatchResult{}, fail(http.StatusBadRequest, fmt.Errorf("batch needs at least one op"))
	}
	// Lower API ops to journal ops, remembering which request op each
	// journal op came from so results can be folded back.
	var entries []snap.Entry
	var owner []int
	for i, op := range req.Ops {
		ops, err := expandBatchOp(op)
		if err != nil {
			return api.BatchResult{}, fail(http.StatusBadRequest, fmt.Errorf("op %d: %w", i, err))
		}
		entries = append(entries, ops...)
		for range ops {
			owner = append(owner, i)
		}
	}
	before := h.Mgr.Fabric().SolverStats()
	opResults, applyErr := h.Sess.ApplyBatch(entries)
	if opResults == nil {
		// Structural rejection: nothing was applied or journaled.
		return api.BatchResult{}, fail(http.StatusBadRequest, applyErr)
	}
	settles := h.Mgr.Fabric().SolverStats().Solves - before.Solves
	// Fold per-journal-op results back onto request ops: an expanded op
	// is "ok" only if all its journal ops applied, "failed" if any
	// failed, otherwise "skipped".
	results := make([]api.BatchOpResult, len(req.Ops))
	for i := range results {
		results[i] = api.BatchOpResult{Op: req.Ops[i].Op, Status: "ok"}
	}
	for k, res := range opResults {
		out := &results[owner[k]]
		switch res.Status {
		case "failed":
			out.Status, out.Error = "failed", res.Error
		case "skipped":
			if out.Status == "ok" {
				out.Status = "skipped"
			}
		}
	}
	body := api.BatchResult{Results: results, SolverSettles: settles}
	if applyErr != nil {
		return api.BatchResult{}, &apiError{status: http.StatusConflict, err: applyErr, details: body}
	}
	return body, nil
}

// getSolver serves the fabric's component-solver snapshot. Write lock:
// sizing the live partition walks the union-find with path
// compression, which mutates finder state.
func getSolver(_ *http.Request, h *fleet.Host) (fabric.SolverStats, error) {
	return h.Mgr.Fabric().SolverStats(), nil
}

// getFleetSolver rolls per-host solver stats up across the fleet.
func (s *Server) getFleetSolver(*http.Request) (api.FleetSolverStats, error) {
	out := api.FleetSolverStats{Hosts: make(map[string]fabric.SolverStats)}
	for _, h := range s.fleet.Hosts() {
		st := h.Mgr.Fabric().SolverStats()
		out.Hosts[h.Name] = st
		t := &out.Totals
		t.Components += st.Components
		t.Flows += st.Flows
		if st.LargestComponent > t.LargestComponent {
			t.LargestComponent = st.LargestComponent
		}
		t.Solves += st.Solves
		t.NoopSolves += st.NoopSolves
		t.ComponentsSolved += st.ComponentsSolved
		t.FlowsSolved += st.FlowsSolved
		t.FlowsSkipped += st.FlowsSkipped
		t.Rounds += st.Rounds
		t.Mutations += st.Mutations
		t.Batches += st.Batches
		t.BatchedMutations += st.BatchedMutations
	}
	return out, nil
}
