// Fleet rebalance: the operator-side payoff of the virtualized
// intra-host abstraction. Two managed hosts run tenants admitted by
// intent. When host A's PCIe switch silently degrades, the anomaly
// platform detects and localizes it, and the fleet migrates exactly
// the tenants whose pathways cross the suspect link — no tenant
// reconfiguration, no full drain.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

func main() {
	fl := fleet.New()
	for i, name := range []string{"host-a", "host-b"} {
		opts := core.DefaultOptions()
		opts.Seed = int64(i + 1)
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := fl.AddSession(name, sess); err != nil {
			log.Fatal(err)
		}
	}
	runner := fleet.NewShardedRunner(fl, fleet.ShardConfig{})
	advance := func(d simtime.Duration) {
		if _, err := runner.RunFor(context.Background(), d); err != nil {
			log.Fatal(err)
		}
	}

	// Tenants place by least pressure; their intents are host-agnostic.
	place := func(tenant fabric.TenantID, targets []intent.Target) {
		_, host, err := fl.Place(tenant, targets, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("placed %-10s on %s\n", tenant, host.Name)
	}
	place("kv", []intent.Target{{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(10)}})
	place("ml", []intent.Target{{Src: "gpu1", Dst: "memory:socket1", Rate: topology.GBps(10)}})
	place("scan", []intent.Target{{Src: "ssd1", Dst: "memory:socket1", Rate: topology.GBps(5)}})

	// Heartbeats calibrate on both hosts.
	advance(3 * simtime.Millisecond)

	// Host A's switch port to nic0 silently degrades.
	hostA := fl.Host("host-a")
	fmt.Println("\ninjecting silent degradation on host-a pcieswitch0->nic0 ...")
	if err := hostA.Sess.DegradeLink("pcieswitch0->nic0", 0.2, 10*simtime.Microsecond); err != nil {
		log.Fatal(err)
	}
	advance(2 * simtime.Millisecond)

	dets := hostA.Mgr.Anomaly().Detections()
	if len(dets) == 0 {
		log.Fatal("no detection")
	}
	fmt.Printf("host-a detected anomaly on pair %s; top suspect %s\n",
		dets[0].Pair, dets[0].Suspects[0].Link)
	fmt.Printf("affected tenants: %v\n", fleet.AffectedTenants(hostA))

	rep := fl.Rebalance(nil)
	fmt.Println("\nrebalance:")
	for tenant, dst := range rep.Moved {
		fmt.Printf("  moved %-10s -> %s\n", tenant, dst)
	}
	if len(rep.Failed) > 0 {
		fmt.Printf("  unplaceable: %v\n", rep.Failed)
	}
	for _, tenant := range []fabric.TenantID{"kv", "ml", "scan"} {
		fmt.Printf("  %-10s now on %s\n", tenant, fl.Locate(tenant).Name)
	}
	fmt.Println("\nonly the tenant whose pathway crossed the degraded link moved.")
}
