package fleet_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Localization-driven evacuation: a silent fault on one host moves
// exactly the tenants whose pathways cross the suspect link.
func ExampleFleet_Rebalance() {
	fl := fleet.New()
	for i, name := range []string{"host-a", "host-b"} {
		opts := core.DefaultOptions()
		opts.Seed = int64(i + 1)
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		_, _ = fl.AddSession(name, sess)
	}
	runner := fleet.NewShardedRunner(fl, fleet.ShardConfig{})
	hostA := fl.Host("host-a")
	_, _ = hostA.Sess.Admit("victim", []intent.Target{
		{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(5)},
	})
	_, _ = hostA.Sess.Admit("bystander", []intent.Target{
		{Src: "gpu1", Dst: "memory:socket1", Rate: topology.GBps(5)},
	})
	_, _ = runner.RunFor(context.Background(), 2*simtime.Millisecond) // calibrate heartbeats
	_ = hostA.Sess.DegradeLink("pcieswitch0->nic0", 0.2, 10*simtime.Microsecond)
	_, _ = runner.RunFor(context.Background(), 2*simtime.Millisecond) // detect + localize

	rep := fl.Rebalance(nil)
	fmt.Println("moved victim to:", rep.Moved["victim"])
	fmt.Println("bystander stayed on:", fl.Locate("bystander").Name)
	// Output:
	// moved victim to: host-b
	// bystander stayed on: host-a
}
