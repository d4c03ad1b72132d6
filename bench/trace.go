package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// probeResult is what bench/storeprobe prints: the store layer timed
// in-process on a workload's own journal.
type probeResult struct {
	Entries    int                  `json:"entries"`
	OpenMs     float64              `json:"open_ms"`
	AppendUs   map[string][]float64 `json:"append_us"` // by sync policy
	SnapshotMs float64              `json:"snapshot_ms"`
	RecoverMs  float64              `json:"recover_ms"`
	Replayed   int                  `json:"replayed"`
}

// storeProbe fetches the workload's journal (in fleet mode, the first
// host's) and runs the store probe on it against the daemon's own store
// config.
func (r *run) storeProbe(ctl *conn) (*probeResult, error) {
	path, cfg := "/api/v1/journal", filepath.Join(r.dir, "store", "config.json")
	if r.w.fleet {
		path = "/api/v1/fleet/hosts/synth-00000/journal"
		cfg = filepath.Join(r.dir, "store", "hosts", "synth-00000", "config.json")
	}
	body, err := ctl.raw(path)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(r.dir, "journal.json")
	if err := os.WriteFile(journal, body, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(r.cfg.probe, "-journal", journal, "-config", cfg, "-dir", filepath.Join(r.dir, "probe"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	var res probeResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("store probe output: %w", err)
	}
	return &res, nil
}

// routeDetail is one route's latency summary in layers.json.
type routeDetail struct {
	Count  int     `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P99Pct float64 `json:"p99_percentile"` // 99 unless the route had fewer than 1,000 samples
}

// perLayer computes the per-layer metrics of a traced window, as
// measured, with the details behind them. untraced is the window
// measured just before it, the base of trace.overhead_pct. It checks
// that the CPU shares sum to 100 and that the HTTP residual is not below
// zero by more than 5% of the client latency it is taken from.
func (r *run) perLayer(w *window, probe *probeResult, untraced *window) (map[string]float64, map[string]any) {
	m := make(map[string]float64)
	details := make(map[string]any)

	if prof, err := parseProfile(w.profile); err != nil {
		r.chk.fail("cpu profile: %v", err)
	} else {
		shares, total := attribute(prof)
		var sum float64
		for l, s := range shares {
			m["cpu."+l] = s
			sum += s
		}
		if total == 0 || math.Abs(sum-100) > 1 {
			r.chk.fail("cpu shares sum to %.2f%% over %d samples, want 100", sum, total)
		}
		details["cpu_samples"] = total
	}

	ok := 0
	byRoute := make(map[string][]float64)
	for _, s := range w.spans {
		if s.OK {
			ok++
			byRoute[s.Route] = append(byRoute[s.Route], float64(s.latency())/float64(time.Microsecond))
		}
	}
	d := w.prom
	m["wall.snap_apply_us"] = d.mean("cmd_effect_latency_us")
	m["wall.fabric_recompute_us"] = d.mean("ihnet_fabric_recompute_duration_ns") / 1e3
	m["count.recompute_per_op"] = ratio(d.get("ihnet_fabric_recompute_total"), float64(ok))
	solved, skipped := d.get("ihnet_fabric_solver_flows_solved_total"), d.get("ihnet_fabric_solver_flows_skipped_total")
	m["ratio.solver_useful"] = ratio(solved, solved+skipped)
	m["count.wal_records_per_op"] = ratio(float64(w.walDelta), float64(ok))
	m["wall.fleet_epoch_ms"] = d.mean("ihnet_fleet_epoch_duration_seconds") * 1e3
	hits, misses := d.get("ihnet_fleet_rollup_cache_hits_total"), d.get("ihnet_fleet_rollup_cache_misses_total")
	m["ratio.rollup_cache_hit"] = ratio(hits, hits+misses)

	routeDetails := make(map[string]routeDetail)
	for route, lat := range byRoute {
		s := sorted(lat)
		p50, _ := percentile(s, 0.5)
		p99, p := tail(s)
		m["route."+route+".p50_us"] = p50
		m["route."+route+".p99_us"] = p99
		routeDetails[route] = routeDetail{Count: len(s), P50Us: p50, P99Us: p99, P99Pct: 100 * p}
	}
	details["routes"] = routeDetails
	m["gen.lag_p99_us"], _ = percentile(sorted(lags(w)), 0.99)

	_, before := perSlice(untraced)
	_, after := perSlice(w)
	untracedOps, tracedOps := median(before["ops_per_s"]), median(after["ops_per_s"])
	m["trace.overhead_pct"] = 100 * (1 - ratio(tracedOps, untracedOps))
	details["ops_per_s"] = map[string]float64{"untraced": untracedOps, "traced": tracedOps}

	appends := map[string][]float64{}
	for mode, xs := range probe.AppendUs {
		appends[mode] = sorted(xs)
		for _, p := range []float64{0.50, 0.99} {
			m[fmt.Sprintf("wall.store_append_us.%s.p%.0f", mode, 100*p)], _ = percentile(appends[mode], p)
		}
	}
	m["wall.store_open_ms"] = probe.OpenMs
	m["wall.store_snapshot_ms"] = probe.SnapshotMs
	m["wall.store_recover_ms_per_1k"] = ratio(probe.RecoverMs, float64(probe.Replayed)/1000)
	details["store_probe"] = map[string]int{"journal_entries": probe.Entries, "replayed": probe.Replayed}

	m["wall.http_residual_us"] = r.residual(w, mean(appends[r.w.sync]), details)
	return m, details
}

// pausedBetween reports whether a pause overlaps the time from a to b.
func (w *window) pausedBetween(a, b time.Duration) bool {
	for _, m := range w.marks {
		if m.at < b && m.resume > a {
			return true
		}
	}
	return false
}

// lags returns how late the load generator sent each request of a
// window, in microseconds. An open-loop request is late by the time from
// its slot on the schedule to its send; a closed-loop request by the
// time from the previous response on its connection to its send, the
// generator's own overhead. A closed-loop gap that spans a pause is left
// out.
func lags(w *window) []float64 {
	var out []float64
	for i, s := range w.spans {
		var lag time.Duration
		switch {
		case s.Open:
			lag = s.Start - s.Due
		case i > 0 && w.spans[i-1].Conn == s.Conn && !w.pausedBetween(w.spans[i-1].End, s.Start):
			lag = s.Start - w.spans[i-1].End
		default:
			continue
		}
		out = append(out, float64(lag)/float64(time.Microsecond))
	}
	return out
}

// residual is the client's mean write latency minus what the daemon
// reports spending on it, leaving decode, lock wait, encode and
// transport. On a single host the daemon's share is the journaled
// commands' apply time (cmd_effect_latency_us) plus one store append per
// WAL record at the probe's mean for the workload's sync policy. In the
// fleet the per-host applies run in parallel inside epochs, so the
// residual is taken over fleet advances alone against the epoch wall
// time, divided by the shards that run concurrently.
func (r *run) residual(w *window, appendUs float64, details map[string]any) float64 {
	var clientUs float64
	var n int
	for _, s := range w.spans {
		if s.OK && (s.Route == "fleet_advance" || !r.w.fleet && s.WAL > 0) {
			clientUs += float64(s.latency()) / float64(time.Microsecond)
			n++
		}
	}
	var daemonUs float64
	if r.w.fleet {
		daemonUs = w.prom.get("ihnet_fleet_epoch_duration_seconds_sum") * 1e6 / float64(max(w.shards, 1))
	} else {
		daemonUs = w.prom.get("cmd_effect_latency_us_sum") + float64(w.walDelta)*appendUs
	}
	res := ratio(clientUs-daemonUs, float64(n))
	if res < -0.05*ratio(clientUs, float64(n)) {
		r.chk.fail("http residual %.1f us is below zero by more than 5%% of the %.1f us client mean",
			res, ratio(clientUs, float64(n)))
	}
	details["residual"] = map[string]float64{
		"requests": float64(n), "client_us_total": clientUs, "daemon_us_total": daemonUs, "store_append_us": appendUs,
	}
	return res
}

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// chromeEvent is one complete event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes a traced window to dir: spans.json (the client
// spans in Chrome trace format), cpu.pprof, the /metrics scrapes before
// and after, and layers.json (every per-layer metric, normalised and as
// measured, with the details behind them).
func writeTrace(dir string, w *window, rep *report, raw map[string]float64, details map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	events := make([]chromeEvent, 0, len(w.spans))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range w.spans {
		cat := "read"
		if s.Write {
			cat = "write"
		}
		events = append(events, chromeEvent{Name: s.Route, Cat: cat, Ph: "X", Ts: us(s.Start),
			Dur: us(s.End - s.Start), Pid: 1, Tid: s.Conn,
			Args: map[string]any{"status": s.Status, "due_us": us(s.Due)}})
	}
	spans, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	layers, err := json.MarshalIndent(map[string]any{
		"workload": rep.workload, "seed": rep.seed, "metrics": rep.layer, "raw": raw, "details": details,
	}, "", "  ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"spans.json":         spans,
		"cpu.pprof":          w.profile,
		"metrics-before.txt": []byte(w.promBefore),
		"metrics-after.txt":  []byte(w.promAfter),
		"layers.json":        layers,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
