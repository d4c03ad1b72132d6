// Command benchjson turns `go test -bench -benchmem` output into a
// committed benchmark-trajectory file and enforces allocation budgets.
// Budgets are keyed by the output filename, so one binary gates every
// trajectory file (BENCH_fabric.json for the fabric hot path,
// BENCH_obs.json for the observability pipeline and fleet placement,
// BENCH_scale.json for the fleet tiers too large for a CI runner).
//
// Usage:
//
//	go test -bench 'BenchmarkFabric...' -benchmem -run '^$' ./internal/fabric | benchjson -out BENCH_fabric.json
//
// The output file keeps two sections: "baseline" (the numbers captured
// when the file was first generated — for the fabric, the
// pre-incremental-engine implementation) and "current" (overwritten on
// every run). An existing baseline is never touched, so the file
// records the perf trajectory across the optimization, not just the
// latest numbers.
//
// Timing numbers are machine-dependent, so CI gates only on the
// allocation counts, which are deterministic for a deterministic
// simulator: if a benchmark listed in allocBudgets exceeds its budget,
// benchjson exits non-zero and prints the violation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// allocBudgetsByFile holds the committed allocation budgets, keyed by
// trajectory filename, then by benchmark name with the GOMAXPROCS
// suffix stripped.
//
// BENCH_fabric.json: the steady-state recompute budget is the whole
// point of the incremental engine — zero.
//
// BENCH_obs.json: the event-bus publish path and the engine's
// schedule-and-run path run inside the simulation hot loop, so they
// must not allocate at all, fan-out or not.
// The steady-state fleet roll-up (one dirty shard between scrapes)
// reuses per-runner scratch accumulators, so its budget is a flat 64
// allocs/op regardless of host count — any O(hosts) allocation growth
// busts it immediately. The cold roll-up (every shard dirty) may
// allocate O(shards) snapshot copies, never O(hosts). A host-pressure
// read is a stored field, so it must not allocate; a placement's
// allocations are its one admission's, flat in the host count, and
// that admission (BenchmarkAdmit) and the arbitration pass that runs
// on every admit, evict and adjust tick are budgeted on their own.
//
// BENCH_scale.json holds the tiers that need more memory than a CI
// runner has (the 1024-host roll-ups, the 1024- and 10000-host RunFor
// advances); `make bench-json-scale` runs them by hand. The sharded
// RunFor tiers budget the epoch engine's per-advance allocations —
// dominated by the hosts' own simulation work, so they scale with
// host-milliseconds, with ~40% headroom over the observed cost.
var allocBudgetsByFile = map[string]map[string]int64{
	"BENCH_fabric.json": {
		"BenchmarkFabricRecomputeSteadyState":    0,
		"BenchmarkFabricFlowChurn/flows=100":     64,
		"BenchmarkFabricFlowChurn/flows=1000":    64,
		"BenchmarkFabricFlowChurn/flows=10000":   64,
		"BenchmarkFabricFlowChurn/flows=100000":  64,
		"BenchmarkFabricFlowChurn/flows=1000000": 96,
		// A full 64-component re-solve reuses the scratch arenas
		// (near-zero).
		"BenchmarkFabricComponentSolve": 8,
	},
	"BENCH_obs.json": {
		"BenchmarkBusPublish":        0,
		"BenchmarkBusPublishFanout8": 0,
		// Events come from the engine's free list; closure-free
		// callbacks, so schedule plus run allocates nothing.
		"BenchmarkScheduleRun": 0,
		// One steady-state heartbeat round of 56 probes: memoized
		// route outcomes, pooled transactions, per-pair votes.
		"BenchmarkHeartbeatRound": 0,
		// Steady-state scrape: one shard refold + S-way merge from
		// cached snapshots. Observed 40-47 allocs/op from 16 to 256
		// recording hosts.
		"BenchmarkFleetRollup/hosts=16":  64,
		"BenchmarkFleetRollup/hosts=64":  64,
		"BenchmarkFleetRollup/hosts=256": 64,
		// Cold fold: every shard refolds, then the merge. Observed
		// 125-129 at 4 shards (256 recording hosts).
		"BenchmarkFleetRollupCold/hosts=256": 192,
		"BenchmarkHostPressure":              0,
		// One place plus one evict. Observed 193 allocs/op at both
		// 128 and 512 hosts once candidate paths come from the
		// topology's table and views stopped cloning it (1683
		// before); the budget is that plus ~40%.
		"BenchmarkFleetPlace/hosts=128": 270,
		"BenchmarkFleetPlace/hosts=512": 270,
		// One admit plus one evict through a two-socket session with
		// 16 resident tenants. Observed 166 allocs/op.
		"BenchmarkAdmit": 232,
		// One arbitration pass over kept per-link state and reused
		// buffers (196 allocs/op when every pass rebuilt its maps).
		// Observed 0.
		"BenchmarkArbitrationPass": 20,
	},
	"BENCH_scale.json": {
		"BenchmarkFleetRollup/hosts=1024": 64,
		// Observed 319 at 16 shards, last measured on hosts without a
		// session.
		"BenchmarkFleetRollupCold/hosts=1024": 512,
		// One millisecond of sharded fleet virtual time. Observed
		// 5.6M allocs at 1024 hosts, ~10x that at 10000.
		"BenchmarkFleetRunFor/hosts=1024/sharded":  8_000_000,
		"BenchmarkFleetRunFor/hosts=10000/sharded": 80_000_000,
	},
	// BENCH_remedy.json: the controller's steady-state step is the
	// standing tax paid on every healthy host — zero allocations.
	"BENCH_remedy.json": {
		"BenchmarkRemedyStepIdle": 0,
	},
}

// metricBudgetsByFile gates custom b.ReportMetric values the same way
// alloc budgets gate allocations. Only deterministic metrics belong
// here — virtual-time figures, and heap bytes after a deterministic
// build — so a regression is a behavior change, not machine noise.
// The remediation MTTR budget is the paper's headline: fault-to-healed
// inside a millisecond at p50 against the seeded chaos adversary
// (observed steady state is 600us: ~3 heartbeat rounds to detect and
// localize, one planner pass to roll back, hysteresis to confirm). The
// per-host heap budget is the observed 0.215–0.218 MB plus 10%: a built
// host's telemetry and event rings allocate chunks only as they fill, so
// a ring sized to its capacity up front (4.7 MB of points, 1 MB of
// events) busts it. A host's virtual millisecond is budgeted in heap
// allocations at steady state: 64 serial hosts, warmed for 300 virtual
// ms until their rings stop growing, then the gate's 5 iterations.
// Observed 0.0625, which is the runner's own 4 allocations per RunFor
// spread over 64 hosts: the host advance itself allocates nothing
// (the same tier read 135.4 unwarmed, mostly ring chunks). The budget
// of 0.25 is busted by any allocation a host repeats every 5 virtual
// ms or more often. The same benchmark's host-ms/s is wall-clock, so
// it is recorded, never gated.
var metricBudgetsByFile = map[string]map[string]map[string]float64{
	"BENCH_obs.json": {
		"BenchmarkFleetBytesPerHost": {
			"bytes_per_host": 240_000,
		},
		"BenchmarkFleetRunFor/hosts=64/serial": {
			"allocs_per_host_ms": 0.25,
		},
	},
	"BENCH_remedy.json": {
		"BenchmarkRemedyMTTR": {
			"mttr_p50_us": 1000,
			"mttr_p99_us": 2000,
		},
	},
}

// Result is one benchmark's measurement.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric values (e.g. mttr_p50_us),
	// keyed by their unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the committed benchmark-trajectory document.
type File struct {
	Schema       int               `json:"schema"`
	BaselineNote string            `json:"baseline_note,omitempty"`
	Baseline     map[string]Result `json:"baseline"`
	Current      map[string]Result `json:"current"`
	AllocBudgets map[string]int64  `json:"alloc_budgets"`
	// MetricBudgets caps custom metrics per benchmark (virtual-time
	// values only — deterministic, so CI-gateable like allocations).
	MetricBudgets map[string]map[string]float64 `json:"metric_budgets,omitempty"`
}

// gomaxprocsSuffix strips the trailing "-N" procs decoration Go
// appends to benchmark names, so names are machine-independent keys.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// customUnit recognizes b.ReportMetric unit strings: identifiers like
// "mttr_p50_us", and rates like "host-ms/s".
var customUnit = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_./-]*$`)

// parseBench extracts results from `go test -bench` output lines of
// the form:
//
//	BenchmarkName-16  100  12345 ns/op  678 B/op  9 allocs/op
func parseBench(lines []string) (map[string]Result, error) {
	out := make(map[string]Result)
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				r.NsPerOp, err = strconv.ParseFloat(v, 64)
			case "B/op":
				r.BytesPerOp, err = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, err = strconv.ParseInt(v, 10, 64)
			default:
				// b.ReportMetric custom units like "mttr_p50_us" or
				// "host-ms/s". Anything else is not a metric pair.
				if !customUnit.MatchString(unit) {
					continue
				}
				var f float64
				f, err = strconv.ParseFloat(v, 64)
				if err == nil {
					if r.Extra == nil {
						r.Extra = make(map[string]float64)
					}
					r.Extra[unit] = f
				}
			}
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad %s value %q in %q", unit, v, line)
			}
		}
		out[name] = r
	}
	return out, nil
}

func run(out, note string) error {
	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		fmt.Println(line) // pass through so CI logs keep the raw output
	}
	if err := sc.Err(); err != nil {
		return err
	}
	current, err := parseBench(lines)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("benchjson: no benchmark results on stdin")
	}

	doc := File{Schema: 1, BaselineNote: note}
	if raw, err := os.ReadFile(out); err == nil {
		var prev File
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("benchjson: existing %s is not valid: %w", out, err)
		}
		doc.Baseline = prev.Baseline
		if prev.BaselineNote != "" {
			doc.BaselineNote = prev.BaselineNote
		}
	}
	if len(doc.Baseline) == 0 {
		// First capture: the trajectory starts here.
		doc.Baseline = current
	}
	allocBudgets := allocBudgetsByFile[filepath.Base(out)]
	metricBudgets := metricBudgetsByFile[filepath.Base(out)]
	doc.Current = current
	doc.AllocBudgets = allocBudgets
	doc.MetricBudgets = metricBudgets

	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", out, len(current))

	violations := checkBudgets(current, allocBudgets, metricBudgets)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchjson: %d budget violation(s)", len(violations))
	}
	fmt.Fprintln(os.Stderr, "benchjson: all budgets met")
	return nil
}

// checkBudgets returns one violation message per busted or missing
// budgeted benchmark. A budgeted name absent from the input is a hard
// failure, not a skip: without it, renaming (or forgetting to run) a
// gated benchmark would silently drop its budget.
func checkBudgets(current map[string]Result, allocBudgets map[string]int64, metricBudgets map[string]map[string]float64) []string {
	var violations []string
	for name, budget := range allocBudgets {
		r, ok := current[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: budgeted benchmark missing from input", name))
			continue
		}
		if r.AllocsPerOp > budget {
			violations = append(violations, fmt.Sprintf("%s: %d allocs/op exceeds budget %d",
				name, r.AllocsPerOp, budget))
		}
	}
	for name, budgets := range metricBudgets {
		r, ok := current[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: metric-budgeted benchmark missing from input", name))
			continue
		}
		for metric, budget := range budgets {
			v, ok := r.Extra[metric]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s: metric %s missing from output", name, metric))
				continue
			}
			if v > budget {
				violations = append(violations, fmt.Sprintf("%s: %s = %g exceeds budget %g",
					name, metric, v, budget))
			}
		}
	}
	sort.Strings(violations)
	return violations
}

func main() {
	out := flag.String("out", "BENCH_fabric.json", "trajectory file to write")
	note := flag.String("note", "", "baseline annotation (kept from existing file if set there)")
	flag.Parse()
	if err := run(*out, *note); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
