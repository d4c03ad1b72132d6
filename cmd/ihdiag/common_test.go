package main

import (
	"testing"
)

func TestTopologyPresetResolution(t *testing.T) {
	c := Common{Preset: "two-socket"}
	topo, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "two-socket" {
		t.Fatalf("name %q", topo.Name)
	}
	c.Preset = "warp-core"
	if _, err := c.Topology(); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTopologyHostFile(t *testing.T) {
	c := Common{HostFile: "../../hosts/lab-box.json"}
	topo, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "lab-box" {
		t.Fatalf("name %q", topo.Name)
	}
	if topo.Component("fpga0") == nil {
		t.Fatal("fpga0 missing from host file")
	}
	c.HostFile = "/nonexistent.json"
	if _, err := c.Topology(); err == nil {
		t.Fatal("missing host file accepted")
	}
}

func TestBuildWithLoadAndFaults(t *testing.T) {
	c := Common{Preset: "two-socket", Seed: 3, Loopback: true, MLLoad: true,
		Degrade: "pcieswitch0->nic0"}
	fab, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if fab.Flows() == 0 {
		t.Fatal("no load flows installed")
	}
	if frac, _ := fab.LinkDegraded("pcieswitch0->nic0"); frac == 0 {
		t.Fatal("degradation not applied")
	}
	c = Common{Preset: "two-socket", Fail: "pcieswitch0->nic0"}
	fab, err = c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !fab.LinkFailed("pcieswitch0->nic0") {
		t.Fatal("failure not applied")
	}
	c = Common{Preset: "two-socket", Fail: "no->where"}
	if _, err := c.Build(); err == nil {
		t.Fatal("bad fault link accepted")
	}
}
