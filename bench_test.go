package repro

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Each benchmark regenerates one experiment table (the reproduction's
// tables and figures; see DESIGN.md §4 and EXPERIMENTS.md). The table
// is printed once per benchmark run via b.Log so `go test -bench . -v`
// doubles as the paper-artifact generator; `ihdiag experiments` renders the
// same tables standalone.
func benchExperiment(b *testing.B, id string) experiments.Table {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err = exp.Run(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tab.Render())
	return tab
}

// metric extracts a numeric cell (strips a trailing unit suffix) for
// ReportMetric.
func metric(tab experiments.Table, rowPrefix string, col int) float64 {
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], rowPrefix) {
			s := r[col]
			for i, c := range s {
				if (c < '0' || c > '9') && c != '.' && c != '-' {
					s = s[:i]
					break
				}
			}
			v, err := strconv.ParseFloat(s, 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func durMetric(tab experiments.Table, rowPrefix string, col int) float64 {
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], rowPrefix) {
			d, err := time.ParseDuration(r[col])
			if err == nil {
				return float64(d.Nanoseconds())
			}
		}
	}
	return 0
}

func BenchmarkE1_Figure1LinkTable(b *testing.B) {
	tab := benchExperiment(b, "E1")
	inEnv := 0.0
	for _, r := range tab.Rows {
		if r[len(r)-1] == "true" {
			inEnv++
		}
	}
	b.ReportMetric(inEnv, "classes-in-envelope")
}

func BenchmarkE2_EndToEndLatencyBreakdown(b *testing.B) {
	tab := benchExperiment(b, "E2")
	b.ReportMetric(durMetric(tab, "idle", 3), "idle-total-ns")
	b.ReportMetric(durMetric(tab, "congested", 3), "congested-total-ns")
}

func BenchmarkE3_InterferenceBaseline(b *testing.B) {
	tab := benchExperiment(b, "E3")
	solo := durMetric(tab, "kv alone", 2)
	worst := durMetric(tab, "kv + ml + rdma loopback", 2)
	if solo > 0 {
		b.ReportMetric(worst/solo, "p99-inflation-x")
	}
}

func BenchmarkE4_DDIOThrashing(b *testing.B) {
	tab := benchExperiment(b, "E4")
	b.ReportMetric(metric(tab, "2 writers @ 20GB/s (thrash)", 3), "miss-pct")
}

func BenchmarkE5_AttributionAccuracy(b *testing.B) {
	tab := benchExperiment(b, "E5")
	b.ReportMetric(metric(tab, "counters+even-split", 4), "counter-error-pct")
	b.ReportMetric(metric(tab, "interception", 4), "intercept-error-pct")
}

func BenchmarkE6_MonitoringOverhead(b *testing.B) {
	benchExperiment(b, "E6")
}

func BenchmarkE7_FailureLocalization(b *testing.B) {
	tab := benchExperiment(b, "E7")
	detected := 0.0
	for _, r := range tab.Rows {
		if r[0] == "heartbeats" && r[3] == "yes" && r[5] == "true" {
			detected++
		}
	}
	b.ReportMetric(detected, "heartbeat-localized")
}

func BenchmarkE8_IsolationWithManager(b *testing.B) {
	tab := benchExperiment(b, "E8")
	un := durMetric(tab, "unmanaged", 2)
	st := durMetric(tab, "managed, strict", 2)
	if st > 0 {
		b.ReportMetric(un/st, "p99-recovery-x")
	}
}

func BenchmarkE9_TopologyAwareScheduling(b *testing.B) {
	tab := benchExperiment(b, "E9")
	b.ReportMetric(metric(tab, "topology-aware", 2), "ta-admitted")
	b.ReportMetric(metric(tab, "naive", 2), "naive-admitted")
}

func BenchmarkE10_WorkConservationAndOverhead(b *testing.B) {
	tab := benchExperiment(b, "E10")
	strict := metric(tab, "strict: idle-guarantee bystander rate", 1)
	wc := metric(tab, "work-conserving: idle-guarantee bystander rate", 1)
	if strict > 0 {
		b.ReportMetric(wc/strict, "conservation-gain-x")
	}
}

func BenchmarkE11_CXLMemoryTiers(b *testing.B) {
	tab := benchExperiment(b, "E11")
	b.ReportMetric(durMetric(tab, "cxl.cache coherent access", 3), "cxl-access-ns")
	b.ReportMetric(durMetric(tab, "PCIe DMA, IOMMU translate", 3), "pcie-dma-ns")
}

func BenchmarkE12_DiagnosisML(b *testing.B) {
	tab := benchExperiment(b, "E12")
	b.ReportMetric(metric(tab, "full multi-modal", 2), "full-accuracy-pct")
	b.ReportMetric(metric(tab, "inter-host-style", 2), "homogeneous-accuracy-pct")
}

func BenchmarkE13_LoadLatencyCurve(b *testing.B) {
	tab := benchExperiment(b, "E13")
	b.ReportMetric(durMetric(tab, "1", 4), "managed-lowload-p50-ns")
	b.ReportMetric(durMetric(tab, "1", 2), "unmanaged-lowload-p50-ns")
}

// obsHotPathLoop drives the fabric's instrumented hot path: one sized
// flow added, run to completion (AddFlow -> recompute -> completion
// event -> fireCompletions), b.N times. This is the loop the obs
// package must not tax.
func obsHotPathLoop(b *testing.B, o *obs.Obs) {
	e := simtime.NewEngine(1)
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, e, fabric.DefaultConfig())
	fab.SetObs(o)
	path, err := topo.ShortestPath("nic0", "socket0.dimm0_0")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl := &fabric.Flow{Tenant: "bench", Path: path, Size: 1 << 16}
		if err := fab.AddFlow(fl); err != nil {
			b.Fatal(err)
		}
		e.Run()
		if !fl.Completed() {
			b.Fatal("flow did not complete")
		}
	}
}

// BenchmarkObsFabricHotPath measures the observability tax on the
// fabric hot path in three configurations. The tracing-enabled vs
// tracing-disabled gap is the cost this PR promises stays under 5%;
// compare with `go test -bench ObsFabricHotPath -count 10 | benchstat`.
func BenchmarkObsFabricHotPath(b *testing.B) {
	b.Run("uninstrumented", func(b *testing.B) {
		obsHotPathLoop(b, nil)
	})
	b.Run("tracing-disabled", func(b *testing.B) {
		o := obs.New(8192)
		o.Tracer.SetEnabled(false)
		obsHotPathLoop(b, o)
	})
	b.Run("tracing-enabled", func(b *testing.B) {
		obsHotPathLoop(b, obs.New(8192))
	})
}
