package remedy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

func benchController(b *testing.B) (*snap.Session, *Controller) {
	b.Helper()
	sess := newSession(b)
	c := newController(b, sess, DefaultPolicy())
	if _, err := sess.Admit("kv", []intent.Target{
		{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(8)},
	}); err != nil {
		b.Fatal(err)
	}
	warmup(b, sess)
	return sess, c
}

// BenchmarkRemedyStepIdle measures the controller's steady-state
// overhead: the per-step cost paid on every healthy host. This is the
// loop's standing tax, so its allocation budget is zero.
func BenchmarkRemedyStepIdle(b *testing.B) {
	_, c := benchController(b)
	c.Step() // absorb one-time lazy work before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkRemedyMTTR runs full fault-heal cycles (degrade UPI,
// detect, localize, roll back, hysteresis-resolve) and reports the
// MTTR distribution. MTTR is virtual time — machine-independent and
// CI-gateable — so the p50/p99 land in BENCH_remedy.json as budgets.
func BenchmarkRemedyMTTR(b *testing.B) {
	sess, c := benchController(b)
	period := core.DefaultOptions().Anomaly.Period
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolved := c.Stats().Resolved
		if err := sess.DegradeLink("cpu0->cpu1", 0, 50*simtime.Microsecond); err != nil {
			b.Fatal(err)
		}
		for step := 0; step < 500; step++ {
			advance(b, sess, period)
			c.Step()
			if c.Stats().Resolved > resolved {
				break
			}
		}
		if c.Stats().Resolved == resolved {
			b.Fatalf("cycle %d never resolved: %+v", i, c.Stats())
		}
	}
	b.StopTimer()
	ds := c.MTTRs()
	if len(ds) == 0 {
		b.Fatal("no MTTR samples")
	}
	b.ReportMetric(float64(Percentile(ds, 50))/float64(simtime.Microsecond), "mttr_p50_us")
	b.ReportMetric(float64(Percentile(ds, 99))/float64(simtime.Microsecond), "mttr_p99_us")
}
