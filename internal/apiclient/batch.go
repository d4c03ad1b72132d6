package apiclient

import (
	"context"
	"encoding/json"
	"errors"

	"repro/internal/fabric"
)

// BatchTarget is one intent target of a batch admit/migrate op.
type BatchTarget struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
	MaxLatNs int64   `json:"max_latency_ns,omitempty"`
}

// BatchOp is one op of a POST /batch envelope. Op selects the kind
// ("admit", "evict", "migrate", "set-cap", "clear-cap", "degrade",
// "fail", "restore-link", "set-config", "workload"); the remaining
// fields are populated per op.
type BatchOp struct {
	Op        string        `json:"op"`
	Tenant    string        `json:"tenant,omitempty"`
	Targets   []BatchTarget `json:"targets,omitempty"`
	Avoid     []string      `json:"avoid,omitempty"`
	Link      string        `json:"link,omitempty"`
	CapBps    float64       `json:"cap_bps,omitempty"`
	LossFrac  float64       `json:"loss_frac,omitempty"`
	ExtraNs   int64         `json:"extra_ns,omitempty"`
	Component string        `json:"component,omitempty"`
	Key       string        `json:"key,omitempty"`
	Value     string        `json:"value,omitempty"`
	Workload  string        `json:"workload,omitempty"`
	Src       string        `json:"src,omitempty"`
	Dst       string        `json:"dst,omitempty"`
}

// BatchOpResult is the per-op outcome: "ok", "failed", or "skipped".
type BatchOpResult struct {
	Op     string `json:"op"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// BatchResult is the batch endpoint's response body: per-op results
// aligned with the request plus the observed solver settle count (1
// for any successfully coalesced batch).
type BatchResult struct {
	Results       []BatchOpResult `json:"results"`
	SolverSettles uint64          `json:"solver_settles"`
}

// Batch posts a multi-op mutation envelope. On partial application the
// daemon answers 409 with the result body inside the envelope details;
// Batch decodes it so callers get per-op outcomes alongside the error.
func (c *Client) Batch(ctx context.Context, ops []BatchOp) (BatchResult, error) {
	var out BatchResult
	err := c.Post(ctx, "/batch", map[string]any{"ops": ops}, &out)
	if err != nil {
		var e *Error
		if errors.As(err, &e) && len(e.Details) > 0 {
			_ = json.Unmarshal(e.Details, &out)
		}
	}
	return out, err
}

// FleetSolverStats is the typed /fleet/fabric/solver document: the
// per-host solver snapshots and their fleet-wide aggregate.
type FleetSolverStats struct {
	Hosts  map[string]fabric.SolverStats `json:"hosts"`
	Totals fabric.SolverStats            `json:"totals"`
}

// FleetSolverStats fetches and decodes /fleet/fabric/solver.
func (c *Client) FleetSolverStats(ctx context.Context) (FleetSolverStats, error) {
	var st FleetSolverStats
	err := c.Get(ctx, "/fleet/fabric/solver", &st)
	return st, err
}
