package diag_test

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// ihdiag ping as a library: probe a pair, read loss and latency.
func ExampleRunPing() {
	engine := simtime.NewEngine(1)
	fab := fabric.New(topology.TwoSocketServer(), engine, fabric.DefaultConfig())
	rep, err := diag.RunPing(fab, "gpu0", "nic0", diag.DefaultPingOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("sent=%d lost=%d min=%v\n", rep.Sent, rep.Lost, rep.Min)
	// Output:
	// sent=10 lost=0 min=524ns
}

// ihdiag traceroute as a library: the degraded hop carries the latency.
func ExampleRunTrace() {
	engine := simtime.NewEngine(1)
	fab := fabric.New(topology.TwoSocketServer(), engine, fabric.DefaultConfig())
	_ = fab.DegradeLink("pcieswitch0->nic0", 0, 5*simtime.Microsecond)
	rep, err := diag.RunTrace(fab, "gpu0", "nic0", 64)
	if err != nil {
		fmt.Println(err)
		return
	}
	worst := rep.Hops[0]
	for _, h := range rep.Hops {
		if h.HopLatency > worst.HopLatency {
			worst = h
		}
	}
	fmt.Println(worst.Link)
	// Output:
	// pcieswitch0->nic0
}
