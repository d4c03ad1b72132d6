package main

import (
	"strings"
	"testing"
)

// TestParseBenchStripsProcsSuffix pins the machine-independent keying:
// the "-N" GOMAXPROCS decoration never reaches the trajectory file.
func TestParseBenchStripsProcsSuffix(t *testing.T) {
	lines := []string{
		"goos: linux",
		"BenchmarkFabricFlowChurn/flows=100000-8  	     100	  45000000 ns/op	     608 B/op	      16 allocs/op",
		"BenchmarkRemedyMTTR-4  	     200	   1000 ns/op	       600 mttr_p50_us	       900 mttr_p99_us",
		"PASS",
	}
	got, err := parseBench(lines)
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	churn, ok := got["BenchmarkFabricFlowChurn/flows=100000"]
	if !ok {
		t.Fatalf("churn benchmark missing; keys: %v", got)
	}
	if churn.AllocsPerOp != 16 || churn.BytesPerOp != 608 {
		t.Fatalf("churn = %+v, want 16 allocs/op 608 B/op", churn)
	}
	mttr, ok := got["BenchmarkRemedyMTTR"]
	if !ok {
		t.Fatalf("mttr benchmark missing; keys: %v", got)
	}
	if mttr.Extra["mttr_p50_us"] != 600 || mttr.Extra["mttr_p99_us"] != 900 {
		t.Fatalf("mttr extras = %v, want p50=600 p99=900", mttr.Extra)
	}
}

// TestCheckBudgetsMissingBenchmarkFails pins the hard-fail contract:
// a budgeted benchmark absent from the input is a violation, so a
// renamed or skipped tier cannot silently drop its gate.
func TestCheckBudgetsMissingBenchmarkFails(t *testing.T) {
	current := map[string]Result{
		"BenchmarkFabricFlowChurn/flows=100": {AllocsPerOp: 2},
	}
	alloc := map[string]int64{
		"BenchmarkFabricFlowChurn/flows=100":     64,
		"BenchmarkFabricFlowChurn/flows=1000000": 96,
	}
	metric := map[string]map[string]float64{
		"BenchmarkRemedyMTTR": {"mttr_p50_us": 1000},
	}
	violations := checkBudgets(current, alloc, metric)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want exactly 2 (missing alloc tier, missing metric bench)", violations)
	}
	want := []string{
		"BenchmarkFabricFlowChurn/flows=1000000: budgeted benchmark missing from input",
		"BenchmarkRemedyMTTR: metric-budgeted benchmark missing from input",
	}
	for i, w := range want {
		if violations[i] != w {
			t.Fatalf("violations[%d] = %q, want %q", i, violations[i], w)
		}
	}
}

// TestCheckBudgetsOverBudgetFails covers the two over-budget shapes:
// an alloc count above its cap and a reported metric above its cap.
func TestCheckBudgetsOverBudgetFails(t *testing.T) {
	current := map[string]Result{
		"BenchmarkFabricRecomputeSteadyState": {AllocsPerOp: 3},
		"BenchmarkRemedyMTTR":                 {Extra: map[string]float64{"mttr_p50_us": 1500}},
	}
	alloc := map[string]int64{"BenchmarkFabricRecomputeSteadyState": 0}
	metric := map[string]map[string]float64{
		"BenchmarkRemedyMTTR": {"mttr_p50_us": 1000},
	}
	violations := checkBudgets(current, alloc, metric)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want exactly 2", violations)
	}
	if !strings.Contains(violations[0], "3 allocs/op exceeds budget 0") {
		t.Fatalf("violations[0] = %q, want alloc overage", violations[0])
	}
	if !strings.Contains(violations[1], "mttr_p50_us = 1500 exceeds budget 1000") {
		t.Fatalf("violations[1] = %q, want metric overage", violations[1])
	}
}

// TestCheckBudgetsCleanPass: everything within budget means zero
// violations — the gate only bites on regressions.
func TestCheckBudgetsCleanPass(t *testing.T) {
	current := map[string]Result{
		"BenchmarkFabricFlowChurn/flows=100000": {AllocsPerOp: 16},
		"BenchmarkFabricComponentSolve":         {AllocsPerOp: 0},
	}
	alloc := map[string]int64{
		"BenchmarkFabricFlowChurn/flows=100000": 64,
		"BenchmarkFabricComponentSolve":         8,
	}
	if v := checkBudgets(current, alloc, nil); len(v) != 0 {
		t.Fatalf("violations = %v, want none", v)
	}
}

// TestFabricBudgetsCoverAllTiers guards the budget table itself: every
// churn tier exercised by BenchmarkFabricFlowChurn and the component
// solve must carry a budget, so adding a tier to the benchmark
// without budgeting it is caught here rather than silently unguarded.
func TestFabricBudgetsCoverAllTiers(t *testing.T) {
	budgets := allocBudgetsByFile["BENCH_fabric.json"]
	want := []string{
		"BenchmarkFabricRecomputeSteadyState",
		"BenchmarkFabricFlowChurn/flows=100",
		"BenchmarkFabricFlowChurn/flows=1000",
		"BenchmarkFabricFlowChurn/flows=10000",
		"BenchmarkFabricFlowChurn/flows=100000",
		"BenchmarkFabricFlowChurn/flows=1000000",
		"BenchmarkFabricComponentSolve",
	}
	for _, name := range want {
		if _, ok := budgets[name]; !ok {
			t.Errorf("BENCH_fabric.json budget missing for %s", name)
		}
	}
}

// TestScaleTiersStayOutOfCI guards the split between the CI-sized
// observability gate and the manual scale gate: every budgeted tier at
// 1024 or more hosts lives in BENCH_scale.json, never in
// BENCH_obs.json, whose recipe must fit a CI runner's memory.
func TestScaleTiersStayOutOfCI(t *testing.T) {
	for name := range allocBudgetsByFile["BENCH_obs.json"] {
		if strings.Contains(name, "hosts=1024") || strings.Contains(name, "hosts=10000") {
			t.Errorf("BENCH_obs.json budgets scale tier %s", name)
		}
	}
	for _, name := range []string{
		"BenchmarkFleetRollup/hosts=1024",
		"BenchmarkFleetRollupCold/hosts=1024",
		"BenchmarkFleetRunFor/hosts=1024/sharded",
		"BenchmarkFleetRunFor/hosts=10000/sharded",
	} {
		if _, ok := allocBudgetsByFile["BENCH_scale.json"][name]; !ok {
			t.Errorf("BENCH_scale.json budget missing for %s", name)
		}
	}
	if b, ok := allocBudgetsByFile["BENCH_obs.json"]["BenchmarkHostPressure"]; !ok || b != 0 {
		t.Errorf("BenchmarkHostPressure budget = %d (present %v), want 0", b, ok)
	}
}

// TestParseBenchKeepsRateUnits: a rate unit such as host-ms/s is
// recorded beside an identifier metric on the same line.
func TestParseBenchKeepsRateUnits(t *testing.T) {
	got, err := parseBench([]string{
		"BenchmarkFleetRunFor/hosts=64/serial-2  5  38355196 ns/op  1051 allocs_per_host_ms  1669 host-ms/s  7300708 B/op  67274 allocs/op",
	})
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	r := got["BenchmarkFleetRunFor/hosts=64/serial"]
	if r.AllocsPerOp != 67274 || r.Extra["allocs_per_host_ms"] != 1051 || r.Extra["host-ms/s"] != 1669 {
		t.Fatalf("parsed %+v", r)
	}
}

// TestHostAdvanceAllocationsBudgeted: the CI-sized observability gate
// carries the per-host-millisecond allocation budget.
func TestHostAdvanceAllocationsBudgeted(t *testing.T) {
	if _, ok := metricBudgetsByFile["BENCH_obs.json"]["BenchmarkFleetRunFor/hosts=64/serial"]["allocs_per_host_ms"]; !ok {
		t.Fatal("BENCH_obs.json has no allocs_per_host_ms budget for BenchmarkFleetRunFor/hosts=64/serial")
	}
}

// TestEngineScheduleBudgetedAtZero: the CI-sized observability gate
// holds the engine's schedule-and-run path at exactly 0 allocs/op.
func TestEngineScheduleBudgetedAtZero(t *testing.T) {
	if b, ok := allocBudgetsByFile["BENCH_obs.json"]["BenchmarkScheduleRun"]; !ok || b != 0 {
		t.Fatalf("BenchmarkScheduleRun budget = %d (present %v), want 0", b, ok)
	}
}

// TestHeartbeatRoundBudgetedAtZero: the CI-sized observability gate
// holds a steady-state heartbeat round at exactly 0 allocs/op.
func TestHeartbeatRoundBudgetedAtZero(t *testing.T) {
	if b, ok := allocBudgetsByFile["BENCH_obs.json"]["BenchmarkHeartbeatRound"]; !ok || b != 0 {
		t.Fatalf("BenchmarkHeartbeatRound budget = %d (present %v), want 0", b, ok)
	}
}
