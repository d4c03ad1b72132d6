package fabric

import (
	"testing"

	"repro/internal/simtime"
)

// Regression test for the read-perturbs-state bug the chaos harness
// flushed out (`ihdiag fuzz -seed 3 -events 500 -preset
// two-socket`: a mid-run snapshot→restore hash mismatch that the
// journal alone could not reproduce). Stats reads used to fold the
// partial rate×dt segment into the link and flow byte accumulators at
// the read instant; float addition is not associative, so the
// accumulators — and the snap state hash derived from them — depended
// on when state was observed, not only on the command timeline. Reads
// must project to now without folding.
func TestStatsReadsDoNotPerturbAccounting(t *testing.T) {
	// Three equal-weight flows on a 100 B/s bottleneck allocate
	// repeating 33.3… rates, and prime-length steps keep every rate×dt
	// product inexact, so any fold-boundary difference is visible in
	// the float accumulators.
	run := func(readBetween bool) ([]LinkStats, []FlowStats) {
		f, e, p := newLineFabric()
		flows := []*Flow{
			{Tenant: "t1", Path: p},
			{Tenant: "t2", Path: p},
			{Tenant: "t3", Path: p, Size: 1 << 20},
		}
		for _, fl := range flows {
			if err := f.AddFlow(fl); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			step := simtime.Duration(101+13*i) * simtime.Microsecond
			if readBetween {
				e.RunFor(step / 3)
				f.AllLinkStats()
				f.AllFlowStats()
				flows[2].Remaining()
				e.RunFor(step - step/3)
			} else {
				e.RunFor(step)
			}
			if i == 20 {
				// A rate change is a legitimate fold boundary; both
				// runs hit it at the same instant.
				f.RemoveFlow(flows[0])
			}
		}
		return f.AllLinkStats(), f.AllFlowStats()
	}

	quietLinks, quietFlows := run(false)
	readLinks, readFlows := run(true)

	for i := range quietLinks {
		q, r := quietLinks[i], readLinks[i]
		if q.TotalBytes != r.TotalBytes {
			t.Errorf("link %s TotalBytes diverged: quiet %v, with reads %v (delta %g)",
				q.Link, q.TotalBytes, r.TotalBytes, r.TotalBytes-q.TotalBytes)
		}
		for tenant, b := range q.TenantBytes {
			if rb := r.TenantBytes[tenant]; rb != b {
				t.Errorf("link %s tenant %s bytes diverged: quiet %v, with reads %v",
					q.Link, tenant, b, rb)
			}
		}
	}
	for i := range quietFlows {
		q, r := quietFlows[i], readFlows[i]
		if q.RemainingBytes != r.RemainingBytes {
			t.Errorf("flow %d RemainingBytes diverged: quiet %d, with reads %d",
				q.ID, q.RemainingBytes, r.RemainingBytes)
		}
	}
}
