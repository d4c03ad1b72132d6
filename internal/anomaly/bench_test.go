package anomaly

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// BenchmarkHeartbeatRound measures one steady-state heartbeat round on
// an idle two-socket host: 56 probes sent, delivered and voted. The
// platform runs past calibration before the timer starts, so every
// round scores its probes, and BENCH_obs.json budgets it at 0
// allocs/op.
func BenchmarkHeartbeatRound(b *testing.B) {
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, simtime.NewEngine(1), fabric.DefaultConfig())
	p, err := New(fab, DefaultPairs(topo), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Start(); err != nil {
		b.Fatal(err)
	}
	e := fab.Engine()
	e.RunFor(simtime.Duration(2*p.cfg.CalibrationRounds) * p.cfg.Period)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunFor(p.cfg.Period)
	}
	b.StopTimer()
	if p.ProbesSent() < uint64(b.N*len(p.pairs)) || len(p.Detections()) != 0 {
		b.Fatalf("%d probes, %d detections after %d rounds", p.ProbesSent(), len(p.Detections()), b.N)
	}
}
