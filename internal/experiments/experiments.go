// Package experiments regenerates every quantitative artifact of the
// reproduction: E1 reproduces the paper's only figure (the Figure 1
// capacity/latency table), and E2-E10 quantify each phenomenon the
// paper claims and each mechanism it proposes, as indexed in
// DESIGN.md. Each experiment is a pure function of a seed that
// returns a renderable table; bench_test.go and `ihdiag experiments` drive
// them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's result, renderable as aligned text.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %s has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) (Table, error)
}

// Registry lists all experiments in order.
var Registry = []Experiment{
	{"E1", "Figure 1 link-class capacity and latency envelopes", E1Figure1},
	{"E2", "End-to-end latency breakdown across link classes (1)-(5)", E2LatencyBreakdown},
	{"E3", "Co-location interference without management", E3InterferenceBaseline},
	{"E4", "DDIO cache thrashing amplifies memory-bus traffic", E4DDIOThrashing},
	{"E5", "Per-tenant attribution: hardware counters vs interception", E5AttributionAccuracy},
	{"E6", "Monitoring overhead vs placement and rate (Q2)", E6MonitoringOverhead},
	{"E7", "Failure detection and localization via heartbeats", E7FailureLocalization},
	{"E8", "Compile-schedule-arbitrate eliminates interference", E8IsolationWithManager},
	{"E9", "Topology-aware vs naive scheduling", E9TopologyAwareScheduling},
	{"E10", "Work conservation and management overhead (Q3)", E10WorkConservationAndOverhead},
	{"E11", "CXL memory tier vs DRAM and PCIe device memory", E11CXLMemoryTiers},
	{"E12", "ML fault diagnosis over multi-modal telemetry (Q3)", E12DiagnosisML},
	{"E13", "Load-latency curve with and without a guarantee", E13LoadLatencyCurve},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// microsStr formats a nanosecond count as microseconds text.
func microsStr(ns float64) string { return fmt.Sprintf("%.2fus", ns/1000) }

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
