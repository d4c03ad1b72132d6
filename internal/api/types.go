// Package api is the ihnetd control plane's one API description: the
// request and response type of every JSON route, the error envelope,
// and the typed Client. The server (internal/httpapi) encodes these
// types and its clients (the Client here, cmd/ihctl) decode them, so
// a route's wire shape is declared once. Routes whose body is already
// a domain type keep it — monitor alerts, fabric.SolverStats,
// fleet.ShardStats, obs.Snapshot, remedy.Policy, remedy.Stats and
// remedy.Incident — and the types here refer to it.
//
// Paths below are relative to Prefix. "Host routes" answer under
// /fleet/hosts/{host} and, on a one-host daemon, directly under
// Prefix too.
package api

import (
	"repro/internal/fabric"
	"repro/internal/remedy"
	"repro/internal/store"
)

// Prefix is the versioned mount point of every JSON route.
const Prefix = "/api/v1"

// Error codes of the v1 envelope. Every non-2xx response carries
// exactly one of these; the code is a stable, typed contract while
// messages remain free-form.
const (
	CodeBadRequest      = "bad_request"       // 400: malformed input
	CodeUnauthorized    = "unauthorized"      // 401: missing or wrong bearer token
	CodeNotFound        = "not_found"         // 404: no such resource or endpoint
	CodeConflict        = "conflict"          // 409: admission/state conflict
	CodePayloadTooLarge = "payload_too_large" // 413: request body over the route's cap
	CodeCanceled        = "canceled"          // 499: client closed the request
	CodeInternal        = "internal"          // 500: operation failed server-side
	CodeUnavailable     = "unavailable"       // 503: surface not enabled in this mode
)

// ErrorBody is the single typed error envelope of the v1 API:
// {"error":{"code":"...","message":"..."}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the typed code and human-readable message.
// Details, when present, is endpoint-specific structured context — the
// batch endpoint returns its BatchResult there on partial application,
// so a 409 still tells the client exactly how far the batch got.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details any    `json:"details,omitempty"`
}

// Component is one topology component (GET /topology).
type Component struct {
	ID     string            `json:"id"`
	Kind   string            `json:"kind"`
	Socket int               `json:"socket"`
	Config map[string]string `json:"config,omitempty"`
}

// Link is one topology link (GET /topology).
type Link struct {
	ID          string  `json:"id"`
	Class       string  `json:"class"`
	FigureRef   int     `json:"figure_ref"`
	CapacityBps float64 `json:"capacity_bps"`
	LatencyNs   int64   `json:"latency_ns"`
}

// Topology is the host's component and link inventory (GET /topology).
type Topology struct {
	Name       string      `json:"name"`
	Components []Component `json:"components"`
	Links      []Link      `json:"links"`
}

// LinkUsage is one link's line of the usage report.
type LinkUsage struct {
	ID          string             `json:"id"`
	Utilization float64            `json:"utilization"`
	RateBps     float64            `json:"rate_bps"`
	Failed      bool               `json:"failed,omitempty"`
	TenantBytes map[string]float64 `json:"tenant_bytes,omitempty"`
}

// Report is the host's usage report (GET /report): per-link
// utilization and per-tenant bandwidth by link class.
type Report struct {
	VirtualTimeNs int64                         `json:"virtual_time_ns"`
	Links         []LinkUsage                   `json:"links"`
	Tenants       map[string]map[string]float64 `json:"tenant_usage_bps"`
	Congested     []string                      `json:"congested,omitempty"`
}

// Suspect is one localized link of a detection.
type Suspect struct {
	Link  string  `json:"link"`
	Score float64 `json:"score"`
}

// Detection is one anomaly detection (GET /detections).
type Detection struct {
	AtNs     int64     `json:"at_ns"`
	Pair     string    `json:"pair"`
	Lost     bool      `json:"lost"`
	Suspects []Suspect `json:"suspects"`
}

// Target is one intent target of an admission, a placement or a batch
// admit/migrate op.
type Target struct {
	Model    string  `json:"model,omitempty"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
	MaxLatNs int64   `json:"max_latency_ns,omitempty"`
}

// Admit is the request of POST /tenants (a host route) and POST
// /fleet/tenants (placement on the least-pressured host).
type Admit struct {
	Tenant  string   `json:"tenant"`
	Targets []Target `json:"targets"`
}

// TenantView is an admitted tenant's guarantees on the host that runs
// it: the answer to an admission, a placement or a migration.
type TenantView struct {
	Tenant   string             `json:"tenant"`
	Host     string             `json:"host"`
	LinksBps map[string]float64 `json:"guaranteed_links_bps"`
}

// Evicted answers DELETE /tenants/{id} and DELETE /fleet/tenants/{id}.
type Evicted struct {
	Evicted string `json:"evicted"`
	Host    string `json:"host"`
}

// Tenant is one admitted tenant (GET /tenants).
type Tenant struct {
	ID      string   `json:"id"`
	Targets []string `json:"targets"`
}

// Verification is one pipe's guarantee check (GET /tenants/{id}/verify).
type Verification struct {
	Path        string  `json:"path"`
	PromisedBps float64 `json:"promised_bps"`
	AchievedBps float64 `json:"achieved_bps"`
	Met         bool    `json:"met"`
	LatencyNs   int64   `json:"latency_ns"`
	LatencyMet  bool    `json:"latency_met"`
}

// TenantLinkUsage is one virtual link of a tenant's own usage view
// (GET /tenants/{id}/usage).
type TenantLinkUsage struct {
	Link         string  `json:"link"`
	AllocatedBps float64 `json:"allocated_bps"`
	UsedBps      float64 `json:"used_bps"`
	Utilization  float64 `json:"utilization"`
}

// BatchOp is one op of a POST /batch request. Op selects the kind; the
// other fields are populated per op, mirroring the journal's entry
// schema:
//
//	admit        tenant, targets, avoid?
//	evict        tenant
//	migrate      tenant, targets, avoid?   (evict + re-admit, two journal ops)
//	set-cap      link, tenant, cap_bps
//	clear-cap    link, tenant
//	degrade      link, loss_frac, extra_ns
//	fail         link
//	restore-link link
//	set-config   component, key, value
//	workload     workload, tenant, src?, dst?
type BatchOp struct {
	Op        string   `json:"op"`
	Tenant    string   `json:"tenant,omitempty"`
	Targets   []Target `json:"targets,omitempty"`
	Avoid     []string `json:"avoid,omitempty"`
	Link      string   `json:"link,omitempty"`
	CapBps    float64  `json:"cap_bps,omitempty"`
	LossFrac  float64  `json:"loss_frac,omitempty"`
	ExtraNs   int64    `json:"extra_ns,omitempty"`
	Component string   `json:"component,omitempty"`
	Key       string   `json:"key,omitempty"`
	Value     string   `json:"value,omitempty"`
	Workload  string   `json:"workload,omitempty"`
	Src       string   `json:"src,omitempty"`
	Dst       string   `json:"dst,omitempty"`
}

// Batch is the request of POST /batch.
type Batch struct {
	Ops []BatchOp `json:"ops"`
}

// BatchOpResult is the per-op outcome: "ok", "failed" (the first op
// that errored), or "skipped" (ops after the failure).
type BatchOpResult struct {
	Op     string `json:"op"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// BatchResult answers POST /batch: per-op results aligned with the
// request plus the observed solver settle count (1 for any
// successfully coalesced batch). On partial application it is the
// error envelope's details instead.
type BatchResult struct {
	Results       []BatchOpResult `json:"results"`
	SolverSettles uint64          `json:"solver_settles"`
}

// Ping answers GET /diag/ping.
type Ping struct {
	Report string `json:"report"`
	Sent   int    `json:"sent"`
	Lost   int    `json:"lost"`
	AvgNs  int64  `json:"avg_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// TraceHop is one hop of an intra-host traceroute.
type TraceHop struct {
	Link  string `json:"link"`
	RTTNs int64  `json:"rtt_ns"`
	HopNs int64  `json:"hop_ns"`
	Lost  bool   `json:"lost,omitempty"`
}

// Trace answers GET /diag/trace.
type Trace struct {
	Path string     `json:"path"`
	Hops []TraceHop `json:"hops"`
}

// Perf answers GET /diag/perf.
type Perf struct {
	Report          string  `json:"report"`
	AchievedBps     float64 `json:"achieved_bps"`
	PathCapacityBps float64 `json:"path_capacity_bps"`
	Bottleneck      string  `json:"bottleneck"`
}

// TelemetryPoint is one stored telemetry sample.
type TelemetryPoint struct {
	AtNs   int64   `json:"at_ns"`
	Link   string  `json:"link"`
	Tenant string  `json:"tenant,omitempty"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

// Telemetry answers GET /telemetry: the matching history plus the
// pipeline's overhead.
type Telemetry struct {
	Points          []TelemetryPoint `json:"points"`
	Dropped         uint64           `json:"dropped"`
	PointsPerSecond float64          `json:"points_per_second"`
	SpoolBps        float64          `json:"spool_bps"`
}

// TraceEvent is one event of a host's ring (GET /trace/events) and the
// data of every event-stream frame (GET /events, GET /fleet/events).
type TraceEvent struct {
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

// TraceEvents answers GET /trace/events.
type TraceEvents struct {
	Events  []TraceEvent `json:"events"`
	Total   uint64       `json:"total"`
	Dropped uint64       `json:"dropped"`
}

// Restored answers POST /restore.
type Restored struct {
	Host           string `json:"host"`
	Restored       bool   `json:"restored"`
	VirtualTimeNs  int64  `json:"virtual_time_ns"`
	JournalEntries int    `json:"journal_entries"`
	StateHash      string `json:"state_hash"`
}

// StateHash answers GET /state/hash: the host's canonical state
// fingerprint plus its context. The store keys are present only on a
// daemon with a durable store.
type StateHash struct {
	Host             string  `json:"host"`
	StateHash        string  `json:"state_hash"`
	VirtualTimeNs    int64   `json:"virtual_time_ns"`
	JournalEntries   int     `json:"journal_entries"`
	StoreWalRecords  *uint64 `json:"store_wal_records,omitempty"`
	StoreSnapshotSeq *uint64 `json:"store_snapshot_seq,omitempty"`
}

// RemedySummary is a remediation controller's (or the fleet's)
// cumulative accounting and headline MTTR percentiles (virtual time,
// so they are comparable across machines).
type RemedySummary struct {
	Enabled   bool         `json:"enabled"`
	Degraded  bool         `json:"degraded"`
	Stats     remedy.Stats `json:"stats"`
	MTTRp50Us float64      `json:"mttr_p50_us"`
	MTTRp99Us float64      `json:"mttr_p99_us"`
}

// RemedyStatus answers GET /remedy/status: the summary plus the
// incident ledger.
type RemedyStatus struct {
	RemedySummary
	Incidents []remedy.Incident `json:"incidents"`
}

// FleetRemedyStatus answers GET /fleet/remedy/status: the fleet-wide
// summary plus a per-host breakdown, where only degraded hosts carry
// their incident list (null otherwise), to keep large-fleet payloads
// proportional to trouble, not size.
type FleetRemedyStatus struct {
	RemedySummary
	Hosts map[string]RemedyStatus `json:"hosts"`
}

// FleetHost is one host of GET /fleet/hosts and GET /fleet/report.
type FleetHost struct {
	Name          string  `json:"name"`
	VirtualTimeNs int64   `json:"virtual_time_ns"`
	Pressure      float64 `json:"pressure"`
	Tenants       int     `json:"tenants"`
	Detections    int     `json:"detections"`
	Quarantined   string  `json:"quarantined,omitempty"`
}

// FleetTenant is one tenant and the host it runs on.
type FleetTenant struct {
	ID   string `json:"id"`
	Host string `json:"host"`
}

// FleetReport answers GET /fleet/report: placement plus the engine's
// shape.
type FleetReport struct {
	VirtualTimeNs int64         `json:"virtual_time_ns"`
	Workers       int           `json:"workers"`
	Shards        int           `json:"shards"`
	EpochNs       int64         `json:"epoch_ns"`
	Hosts         []FleetHost   `json:"hosts"`
	Tenants       []FleetTenant `json:"tenants"`
}

// Advance is the request of POST /fleet/advance (and of its one-host
// alias POST /advance).
type Advance struct {
	Micros int64 `json:"micros"`
}

// Advanced answers POST /fleet/advance. Failed maps every quarantined
// host to why.
type Advanced struct {
	VirtualTimeNs int64             `json:"virtual_time_ns"`
	Epochs        int               `json:"epochs"`
	OuterEpochs   int               `json:"outer_epochs"`
	HostsAdvanced int               `json:"hosts_advanced"`
	Failed        map[string]string `json:"failed"`
}

// Migrate is the request of POST /fleet/tenants/{id}/migrate.
type Migrate struct {
	Host string `json:"host"`
}

// Rebalanced answers POST /fleet/rebalance: tenants moved (to which
// host) and tenants that could not be moved.
type Rebalanced struct {
	Moved  map[string]string `json:"moved"`
	Failed []string          `json:"failed"`
}

// FleetSolverStats answers GET /fleet/fabric/solver: the per-host
// solver snapshots and their fleet-wide aggregate. Totals sums the
// cumulative counters and the live partition shape across hosts;
// LargestComponent is the fleet-wide maximum.
type FleetSolverStats struct {
	Hosts  map[string]fabric.SolverStats `json:"hosts"`
	Totals fabric.SolverStats            `json:"totals"`
}

// FleetStateHash answers GET /fleet/state/hash: every host's state
// hash folded, in host-name order, into one fingerprint.
type FleetStateHash struct {
	FleetHash     string            `json:"fleet_hash"`
	Hosts         int               `json:"hosts"`
	VirtualTimeNs int64             `json:"virtual_time_ns"`
	HostHashes    map[string]string `json:"host_hashes"`
}

// Experiment answers GET /experiments/{id}: one of the paper's
// experiments, run server-side.
type Experiment struct {
	ID       string     `json:"id"`
	Title    string     `json:"title"`
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	Notes    []string   `json:"notes"`
	Rendered string     `json:"rendered"`
}

// Health answers GET /healthz: build info, uptime, the fleet clock,
// counts summed over hosts, the engine's shape, and per-subsystem
// status. Every daemon serves the same shape; a single-host daemon is
// a one-host fleet, reported with Mode "host".
type Health struct {
	Status          string     `json:"status"`
	Mode            string     `json:"mode"` // "host" (one host) or "fleet"
	Version         string     `json:"version"`
	GoVersion       string     `json:"go_version"`
	Module          string     `json:"module"`
	VCSRevision     string     `json:"vcs_revision"`
	UptimeSeconds   float64    `json:"uptime_seconds"`
	VirtualTimeNs   int64      `json:"virtual_time_ns"`
	EventsProcessed uint64     `json:"events_processed"`
	MetricCount     int        `json:"metric_count"`
	TraceEvents     uint64     `json:"trace_events"`
	TraceDropped    uint64     `json:"trace_dropped"`
	ActiveFlows     int        `json:"active_flows"`
	Tenants         int        `json:"tenants"`
	Hosts           int        `json:"hosts"`
	Quarantined     int        `json:"quarantined"`
	Workers         int        `json:"workers"`
	Shards          int        `json:"shards"`
	EpochNs         int64      `json:"epoch_ns"`
	Subsystems      Subsystems `json:"subsystems"`
}

// Subsystems is the per-subsystem half of the health document. Every
// subsystem reports a status; remedy and store report only
// "disabled" when the daemon runs without them.
type Subsystems struct {
	Fabric      FabricHealth      `json:"fabric"`
	Snap        SnapHealth        `json:"snap"`
	Telemetry   TelemetryHealth   `json:"telemetry"`
	ObsBus      BusHealth         `json:"obs_bus"`
	Anomaly     AnomalyHealth     `json:"anomaly"`
	Runner      RunnerHealth      `json:"runner"`
	RollupCache RollupCacheHealth `json:"rollup_cache"`
	Remedy      RemedyHealth      `json:"remedy"`
	Store       StoreHealth       `json:"store"`
}

// FabricHealth reports the fabric's active flows, summed over hosts.
type FabricHealth struct {
	Status      string `json:"status"`
	ActiveFlows int    `json:"active_flows"`
}

// SnapHealth reports the journals' total length.
type SnapHealth struct {
	Status         string `json:"status"`
	Enabled        bool   `json:"enabled"`
	JournalEntries int    `json:"journal_entries"`
}

// TelemetryHealth is "ok" when every host runs a telemetry pipeline.
type TelemetryHealth struct {
	Status string `json:"status"`
}

// BusHealth reports the event buses: the hosts' and the fleet's.
type BusHealth struct {
	Status      string `json:"status"`
	Subscribers int    `json:"subscribers"`
	Published   uint64 `json:"published"`
	Dropped     uint64 `json:"dropped"`
}

// AnomalyHealth is "degraded" while any heartbeat pair is alerted.
type AnomalyHealth struct {
	Status     string `json:"status"`
	Detections int    `json:"detections"`
}

// RunnerHealth reports the sharded engine; it is "degraded" while any
// host is quarantined, and Quarantined names them.
type RunnerHealth struct {
	Status      string   `json:"status"`
	Workers     int      `json:"workers"`
	Shards      int      `json:"shards"`
	OuterEvery  int      `json:"outer_every"`
	OuterEpochs uint64   `json:"outer_epochs"`
	Quarantined []string `json:"quarantined"`
}

// RollupCacheHealth reports the roll-up cache's hits and misses.
type RollupCacheHealth struct {
	Status string `json:"status"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// RemedyHealth reports the remediation controllers; the counts are
// absent when remediation is disabled.
type RemedyHealth struct {
	Status string `json:"status"`
	*RemedyCounts
}

// RemedyCounts is the incident accounting of RemedyHealth.
type RemedyCounts struct {
	OpenIncidents int `json:"open_incidents"`
	Resolved      int `json:"resolved"`
}

// StoreHealth reports the durable store's occupancy; the stats are
// absent when the daemon runs without a store.
type StoreHealth struct {
	Status string `json:"status"`
	*store.FleetStats
}
