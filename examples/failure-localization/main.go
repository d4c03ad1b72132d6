// Failure localization: the paper's §3.1 motivating anomaly. A PCIe
// link silently degrades — no hard failure, no counter alarm — and
// applications just get slower. The heartbeat mesh detects the RTT
// inflation, localizes the culprit link by path-overlap voting, and
// ihdiag traceroute confirms the hop. This is the debugging workflow the paper
// says today's hosts cannot offer.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func main() {
	mgr, err := core.New(topology.TwoSocketServer(), core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		log.Fatal(err)
	}
	fab := mgr.Fabric()

	// Let the heartbeat mesh calibrate per-pair baselines.
	mgr.RunFor(3 * simtime.Millisecond)
	fmt.Printf("heartbeat mesh calibrated: %d probes across %d rounds\n\n",
		mgr.Anomaly().ProbesSent(), mgr.Anomaly().Rounds())

	// The silent fault: pcieswitch0's port to nic0 degrades.
	victim := topology.LinkID("pcieswitch0->nic0")
	injectAt := mgr.Engine().Now()
	if err := fab.DegradeLink(victim, 0.2, 10*simtime.Microsecond); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%v  injected silent degradation on %s (-20%% capacity, +10us latency)\n",
		injectAt, victim)

	// Wait for the platform to notice.
	for i := 0; i < 100 && len(mgr.Anomaly().Detections()) == 0; i++ {
		mgr.RunFor(100 * simtime.Microsecond)
	}
	dets := mgr.Anomaly().Detections()
	if len(dets) == 0 {
		log.Fatal("anomaly platform did not detect the degradation")
	}
	d := dets[0]
	fmt.Printf("t=%v  DETECTED on pair %s (detection latency %v)\n",
		d.At, d.Pair, d.At.Sub(injectAt))
	fmt.Println("      localization ranking:")
	for i, s := range d.Suspects {
		marker := ""
		if s.Link == victim || s.Link == fab.Topology().Link(victim).Reverse {
			marker = "   <-- injected fault"
		}
		fmt.Printf("      %d. %-40s score=%.2f coverage=%d%s\n",
			i+1, s.Link, s.Score, s.Traversals, marker)
		if i >= 4 {
			break
		}
	}

	// The operator confirms with ihdiag traceroute: the degraded hop carries the
	// latency.
	fmt.Println("\noperator runs ihdiag traceroute gpu0 -> nic0:")
	rep, err := diag.RunTrace(fab, "gpu0", "nic0", 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)

	// And repairs it; heartbeats confirm recovery.
	if err := fab.RestoreLink(victim); err != nil {
		log.Fatal(err)
	}
	before := len(mgr.Anomaly().Detections())
	mgr.RunFor(3 * simtime.Millisecond)
	fmt.Printf("\nlink restored; %d new detections in the 3ms after repair\n",
		len(mgr.Anomaly().Detections())-before)
}
