package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Common is the flag set shared by the §3.1 tools (ping, traceroute,
// perf, sniff): preset selection, optional background load, and
// optional fault injection, so every tool can reproduce the paper's
// scenarios from the shell.
type Common struct {
	Preset   string
	HostFile string
	Seed     int64
	Loopback bool
	MLLoad   bool
	Degrade  string
	Fail     string
}

// registerTopology installs only -preset and -hostfile, the flags
// Topology reads; hostFileUsage is the help text for -hostfile.
func (c *Common) registerTopology(fs *flag.FlagSet, hostFileUsage string) {
	fs.StringVar(&c.Preset, "preset", "two-socket",
		"topology preset: "+strings.Join(topology.PresetNames(), ", "))
	fs.StringVar(&c.HostFile, "hostfile", "", hostFileUsage)
}

// Register installs the shared flags on fs.
func (c *Common) Register(fs *flag.FlagSet) {
	c.registerTopology(fs, "JSON host description to use instead of a preset (see topology.FromJSON)")
	fs.Int64Var(&c.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&c.Loopback, "loopback", false, "start an RDMA loopback antagonist on nic0")
	fs.BoolVar(&c.MLLoad, "mlload", false, "start an ML staging workload on gpu0")
	fs.StringVar(&c.Degrade, "degrade", "", "silently degrade a directed link (e.g. pcieswitch0->nic0)")
	fs.StringVar(&c.Fail, "fail", "", "hard-fail a directed link")
}

// Topology resolves the -hostfile/-preset flags to a topology.
func (c *Common) Topology() (*topology.Topology, error) {
	if c.HostFile != "" {
		f, err := os.Open(c.HostFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.FromJSON(f)
	}
	build, ok := topology.Presets[c.Preset]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q (have %s)", c.Preset, strings.Join(topology.PresetNames(), ", "))
	}
	return build(), nil
}

// Build constructs the fabric, applies load and faults, and lets the
// background settle.
func (c *Common) Build() (*fabric.Fabric, error) {
	topo, err := c.Topology()
	if err != nil {
		return nil, err
	}
	engine := simtime.NewEngine(c.Seed)
	fab := fabric.New(topo, engine, fabric.DefaultConfig())
	if c.Loopback {
		if _, err := workload.StartLoopback(fab, "antagonist", "nic0", "socket0.dimm0_0"); err != nil {
			return nil, err
		}
	}
	if c.MLLoad {
		if _, err := workload.StartML(fab, workload.DefaultMLConfig("ml")); err != nil {
			return nil, err
		}
	}
	if c.Degrade != "" {
		if err := fab.DegradeLink(topology.LinkID(c.Degrade), 0.2, 10*simtime.Microsecond); err != nil {
			return nil, err
		}
	}
	if c.Fail != "" {
		if err := fab.FailLink(topology.LinkID(c.Fail)); err != nil {
			return nil, err
		}
	}
	engine.RunFor(50 * simtime.Microsecond)
	return fab, nil
}

// parseAndBuild parses args into fs, which holds c's flags and the
// tool's own, then builds the fabric they describe.
func (c *Common) parseAndBuild(fs *flag.FlagSet, args []string) (*fabric.Fabric, error) {
	if err := parse(fs, args); err != nil {
		return nil, err
	}
	return c.Build()
}
