package core

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Verification is the outcome of checking one assignment's guarantee
// against reality: the manager runs an ihdiag perf probe *as the tenant*
// along the assigned pathway and compares what the tenant can actually
// achieve with what it was promised.
type Verification struct {
	Path     topology.Path
	Promised topology.Rate
	Achieved topology.Rate
	// Met is true when the achieved rate reaches the promise (within
	// 2% measurement slack).
	Met bool
	// IdleLatency is the pathway's current uncongested latency, for
	// comparison against the target's MaxLatency if one was declared.
	IdleLatency simtime.Duration
	// LatencyMet is false only when the target declared a bound and
	// the pathway now exceeds it.
	LatencyMet bool
}

// VerifyTenant measures every pipe assignment of an admitted tenant
// against its guarantee — the "trust but verify" API an operator (or
// the tenant's own agent, via the virtualized view) would run after
// admission, after migration, or when suspecting enforcement drift.
// The probes run as the tenant, so they are subject to the same caps.
func (m *Manager) VerifyTenant(tenant fabric.TenantID) ([]Verification, error) {
	rec, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("core: unknown tenant %q", tenant)
	}
	var out []Verification
	for _, a := range rec.Assignments {
		if a.Path.Hops() == 0 {
			continue // hose assignments have no single pathway to probe
		}
		var rep diag.PerfReport
		done := false
		_, err := diag.StartPerf(m.fab, a.Path.Src(), a.Path.Dst(), diag.PerfOptions{
			Duration: 200 * simtime.Microsecond,
			Tenant:   tenant,
			Path:     a.Path,
		}, func(r diag.PerfReport) { rep, done = r, true })
		if err != nil {
			return nil, err
		}
		for i := 0; i < 1000 && !done; i++ {
			m.engine.RunFor(10 * simtime.Microsecond)
		}
		if !done {
			return nil, fmt.Errorf("core: verification probe for %q did not complete", tenant)
		}
		v := Verification{
			Path:       a.Path,
			Promised:   a.Req.Target.Rate,
			Achieved:   rep.Achieved,
			LatencyMet: true,
		}
		v.Met = float64(v.Achieved) >= float64(v.Promised)*0.98
		if lat, err := m.fab.PathLatency(a.Path); err == nil {
			v.IdleLatency = lat
			if b := a.Req.Target.MaxLatency; b > 0 && lat > b {
				v.LatencyMet = false
			}
		}
		out = append(out, v)
	}
	return out, nil
}
