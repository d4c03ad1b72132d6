// Tenant migration: the §3.2 virtualized-abstraction story. A tenant
// declares its intra-host intent once ("10 GB/s between my NIC and
// memory"). The manager compiles that intent against whatever host the
// tenant lands on, so migrating from the two-socket server to the
// DGX-style box needs no tenant-side reconfiguration — the tenant's
// virtual view simply rebinds to new physical pathways.
package main

import (
	"fmt"
	"log"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/intent"
	"repro/internal/topology"
	"repro/internal/vnet"
)

func describe(view *vnet.View, mgr *core.Manager) {
	rec := mgr.Tenant(view.Tenant)
	fmt.Printf("  host %q:\n", view.HostName)
	for _, a := range rec.Assignments {
		fmt.Printf("    pathway: %s\n", a.Path)
	}
	fmt.Printf("    guaranteed links: %d\n", len(view.Reservation.Links))
	// What the tenant itself would measure with ihdiag perf: its virtual
	// capacity, not the physical link rate.
	p := rec.Assignments[0].Path
	perf, err := diag.RunPerf(mgr.Fabric(), p.Src(), p.Dst(), diag.PerfOptions{
		Duration: 1_000_000, Tenant: view.Tenant, Path: p,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    tenant-visible bandwidth (ihdiag perf): %v (virtual view promises %v)\n",
		perf.Achieved, view.PathCapacity(p))
}

func main() {
	// The tenant's intent, written once, host-agnostic.
	targets := []intent.Target{
		{Tenant: "kv", Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(10)},
	}

	// Strict arbitration makes the virtual view literal: the tenant
	// measures exactly its allocation, no more (work conservation
	// would lend it the idle remainder).
	srcOpts := core.DefaultOptions()
	srcOpts.Arbiter.Mode = arbiter.Strict
	src, err := core.New(topology.TwoSocketServer(), srcOpts)
	if err != nil {
		log.Fatal(err)
	}
	if err := src.Start(); err != nil {
		log.Fatal(err)
	}
	view, err := src.Admit("kv", targets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant kv admitted:")
	describe(view, src)

	// Migration target: a DGX-style host, different topology, same
	// intent.
	dstOpts := core.DefaultOptions()
	dstOpts.Seed = 2
	dstOpts.Arbiter.Mode = arbiter.Strict
	dst, err := core.New(topology.DGXStyle(), dstOpts)
	if err != nil {
		log.Fatal(err)
	}
	if err := dst.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmigrating kv to the DGX-style host ...")
	newView, err := src.Migrate("kv", dst)
	if err != nil {
		log.Fatal(err)
	}
	describe(newView, dst)

	fmt.Printf("\nsource host released its reservations: %d caps remain there\n",
		src.Fabric().CapCount())
	fmt.Println("the tenant reconfigured nothing: same intent, new pathways, same guarantee")
}
