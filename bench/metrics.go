package main

import "math"

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
// A per-layer duration is normalised to reference speed by normalise;
// the end-to-end metrics are normalised slice by slice in endToEnd.
type metricDef struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	duration bool
}

// normalise maps raw per-layer values to reference speed: durations are
// scaled by f, everything else is kept as measured.
func normalise(defs []metricDef, raw map[string]float64, f speed) map[string]float64 {
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		out[k] = v
	}
	for _, d := range defs {
		if d.duration {
			out[d.Name] = f.duration(raw[d.Name])
		}
	}
	return out
}

// endToEnd are the gated metrics every untraced run prints.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "write_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "read_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "sim_speed_vms_per_s", Unit: "vms/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// tails are printed with every untraced run but not gated: each latency
// class's highest percentile with ten samples beyond it (p99 from 1,000
// samples). On a shared 2-vCPU machine they spread too far across seeds
// to hold any bound; write_p90_us and read_p90_us are the gated tails.
var tails = []string{"write_p99_us", "read_p99_us"}

// layers are the CPU-attribution buckets of a traced run: the daemon's
// packages under repro/internal, two standard-library packages that sit
// on the request path, and runtime for samples with none of them.
var layers = []string{
	"httpapi", "snap", "core", "intent", "sched", "arbiter", "vnet", "topology",
	"fabric", "simtime", "monitor", "anomaly", "telemetry", "workload", "counters",
	"cachesim", "diag", "obs", "store", "fleet", "encoding_json", "net_http", "runtime",
}

// routes are the request routes the workloads use, by slug.
var routes = []string{
	"admit", "evict", "advance", "verify", "batch",
	"metrics", "healthz", "report", "state_hash", "telemetry", "trace_events",
	"fleet_advance", "fleet_rollup", "fleet_hosts", "fleet_place", "fleet_evict", "fleet_migrate",
}

// perLayer are the metrics a traced run prints. Every one is printed on
// every workload; a layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{Name: "calib_ms", Unit: "ms", Better: "lower"}}
	for _, l := range layers {
		defs = append(defs, metricDef{Name: "cpu." + l, Unit: "%", Better: "lower"})
	}
	wall := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", duration: true}
	}
	defs = append(defs,
		wall("wall.snap_apply_us", "us"),
		wall("wall.fabric_recompute_us", "us"),
		metricDef{Name: "count.recompute_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "ratio.solver_useful", Unit: "ratio", Better: "higher"},
		metricDef{Name: "count.wal_records_per_op", Unit: "count", Better: "lower"},
		wall("wall.fleet_epoch_ms", "ms"),
		metricDef{Name: "ratio.rollup_cache_hit", Unit: "ratio", Better: "higher"},
		wall("wall.http_residual_us", "us"),
		wall("wall.store_open_ms", "ms"),
		wall("wall.store_append_us.os.p50", "us"),
		wall("wall.store_append_us.os.p99", "us"),
		wall("wall.store_append_us.always.p50", "us"),
		wall("wall.store_append_us.always.p99", "us"),
		wall("wall.store_snapshot_ms", "ms"),
		wall("wall.store_recover_ms_per_1k", "ms"),
		wall("gen.lag_p99_us", "us"),
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
	for _, r := range routes {
		defs = append(defs, wall("route."+r+".p50_us", "us"), wall("route."+r+".p99_us", "us"))
	}
	return defs
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick renders the named metrics from values with their declared units.
// A metric missing from values reads 0, and a non-finite value (a ratio
// over nothing) reads 0 so the line stays valid JSON.
func pick(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}
