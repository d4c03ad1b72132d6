package telemetry

import (
	"sort"

	"repro/internal/counters"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// CounterSource collects from an emulated hardware counter bank. It
// inherits the bank's fidelity limits: aggregate-only values, bounded
// refresh rate, quantization and noise (§3.1 Q1, the hardware side).
type CounterSource struct {
	bank *counters.Bank
	fab  *fabric.Fabric
}

// NewCounterSource wraps a counter bank as a telemetry source.
func NewCounterSource(fab *fabric.Fabric, bank *counters.Bank) *CounterSource {
	return &CounterSource{bank: bank, fab: fab}
}

// Name implements Source.
func (s *CounterSource) Name() string { return "counters" }

// CostPerPoint implements Source: reading a hardware counter block is
// cheap (an MSR/MMIO read).
func (s *CounterSource) CostPerPoint() simtime.Duration { return 50 * simtime.Nanosecond }

// Collect reads every link counter. Points carry no tenant labels —
// hardware counters cannot attribute traffic.
func (s *CounterSource) Collect(out []Point) []Point {
	now := s.fab.Engine().Now()
	snap := s.bank.Snapshot()
	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		lid := topology.LinkID(id)
		sm := snap[lid]
		out = append(out, Point{
			At:     now,
			Link:   lid,
			Metric: MetricBytes,
			Value:  float64(sm.Bytes),
			Stale:  sm.Stale,
		})
	}
	return out
}

// InterceptSource collects by software interception of the I/O path:
// it sees exact per-tenant, per-link rates and byte counts, at a
// higher per-point CPU cost (§3.1 Q1, the software side).
type InterceptSource struct {
	fab *fabric.Fabric
}

// NewInterceptSource wraps a fabric as an interception telemetry
// source.
func NewInterceptSource(fab *fabric.Fabric) *InterceptSource {
	return &InterceptSource{fab: fab}
}

// Name implements Source.
func (s *InterceptSource) Name() string { return "intercept" }

// CostPerPoint implements Source: interception pays a software tax on
// every accounted I/O operation.
func (s *InterceptSource) CostPerPoint() simtime.Duration { return 400 * simtime.Nanosecond }

// Collect emits, for every link: an aggregate utilization point and a
// per-tenant cumulative bytes point for each tenant seen on the link,
// in tenant order.
func (s *InterceptSource) Collect(out []Point) []Point {
	now := s.fab.Engine().Now()
	s.fab.EachLinkBytes(func(link topology.LinkID, util float64, tenants []fabric.TenantBytes) {
		out = append(out, Point{At: now, Link: link, Metric: MetricUtilization, Value: util})
		for _, tb := range tenants {
			out = append(out, Point{At: now, Link: link, Tenant: tb.Tenant, Metric: MetricBytes, Value: tb.Bytes})
		}
	})
	return out
}
