package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runPing is the intra-host ping of §3.1: it probes the round-trip
// latency and loss between two components, optionally under injected
// load or faults. A lost probe exits 2.
func runPing(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag ping", flag.ContinueOnError)
	var common Common
	common.Register(fs)
	src := fs.String("src", "gpu0", "probe source component")
	dst := fs.String("dst", "nic0", "probe destination component")
	count := fs.Int("count", 10, "number of probes")
	size := fs.Int64("size", 64, "probe payload bytes each way")
	interval := fs.Duration("interval", 10_000, "virtual time between probes (ns)")
	fab, err := common.parseAndBuild(fs, args)
	if err != nil {
		return err
	}
	rep, err := diag.RunPing(fab, topology.CompID(*src), topology.CompID(*dst), diag.PingOptions{
		Count: *count, Size: *size, Interval: simtime.Duration(*interval),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rep)
	for i, rtt := range rep.RTTs {
		fmt.Fprintf(w, "  probe %2d: rtt=%v\n", i+1, rtt)
	}
	if rep.Lost > 0 {
		fmt.Fprintf(w, "  %d probe(s) lost\n", rep.Lost)
		return exitStatus(2)
	}
	return nil
}

// runTraceroute is the intra-host traceroute of §3.1: it walks the
// current path between two components hop by hop and attributes
// round-trip latency to each fabric element, so a silently degraded
// switch or link stands out.
func runTraceroute(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag traceroute", flag.ContinueOnError)
	var common Common
	common.Register(fs)
	src := fs.String("src", "gpu0", "trace source component")
	dst := fs.String("dst", "socket0.dimm0_0", "trace destination component")
	size := fs.Int64("size", 64, "probe payload bytes each way")
	fab, err := common.parseAndBuild(fs, args)
	if err != nil {
		return err
	}
	rep, err := diag.RunTrace(fab, topology.CompID(*src), topology.CompID(*dst), *size)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep)
	return nil
}

// runPerf is the intra-host iperf of §3.1: it measures the achievable
// bandwidth between two components, identifies the bottleneck hop,
// and — run as a tenant — observes that tenant's virtualized share.
func runPerf(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag perf", flag.ContinueOnError)
	var common Common
	common.Register(fs)
	src := fs.String("src", "gpu0", "traffic source component")
	dst := fs.String("dst", "nic0", "traffic destination component")
	dur := fs.Duration("duration", time.Millisecond, "measurement window (virtual time)")
	tenant := fs.String("tenant", "", "run as this tenant (empty = system)")
	fab, err := common.parseAndBuild(fs, args)
	if err != nil {
		return err
	}
	rep, err := diag.RunPerf(fab, topology.CompID(*src), topology.CompID(*dst), diag.PerfOptions{
		Duration: simtime.Duration(*dur), Tenant: fabric.TenantID(*tenant),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rep)
	fmt.Fprintf(w, "  path: %s\n", rep.Path)
	fmt.Fprintf(w, "  efficiency vs path capacity: %.1f%%\n", 100*float64(rep.Achieved)/float64(rep.PathCapacity))
	return nil
}

// runSniff is the intra-host wireshark of §3.1: it runs a KV tenant on
// the simulated host and captures the transactions crossing the
// fabric, with src/dst/tenant/link/lost filters.
func runSniff(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag sniff", flag.ContinueOnError)
	var common Common
	common.Register(fs)
	dur := fs.Duration("duration", time.Millisecond, "capture window (virtual time)")
	tenant := fs.String("tenant", "", "filter: tenant")
	src := fs.String("src", "", "filter: source component")
	dst := fs.String("dst", "", "filter: destination component")
	link := fs.String("link", "", "filter: traverses directed link")
	lost := fs.Bool("lost", false, "filter: lost transactions only")
	max := fs.Int("max", 20, "max records to print")
	fab, err := common.parseAndBuild(fs, args)
	if err != nil {
		return err
	}
	if _, err := workload.StartKV(fab, workload.DefaultKVConfig("kv")); err != nil {
		return err
	}
	sn, err := diag.StartSniff(fab, diag.SniffFilter{
		Tenant: fabric.TenantID(*tenant),
		Src:    topology.CompID(*src), Dst: topology.CompID(*dst),
		Link: topology.LinkID(*link), LostOnly: *lost,
	}, 4096)
	if err != nil {
		return err
	}
	fab.Engine().RunFor(simtime.Duration(*dur))
	sn.Stop()
	seen, matched := sn.Counts()
	fmt.Fprintf(w, "captured %d of %d transactions in %v of virtual time\n", matched, seen, *dur)
	for i, r := range sn.Captured() {
		if i >= *max {
			fmt.Fprintf(w, "  ... %d more\n", int(matched)-*max)
			break
		}
		status := fmt.Sprintf("rtt=%v", r.RTT)
		if r.Lost {
			status = "LOST at " + string(r.LostAt)
		}
		fmt.Fprintf(w, "  %-12v %-8s %-24s -> %-24s req=%-6d resp=%-6d %s\n",
			r.Sent, r.Tenant, r.Src, r.Dst, r.ReqBytes, r.RespBytes, status)
	}
	return nil
}

// runTopo inspects a topology preset or host file: the components,
// links, and Figure 1 class envelopes of the intra-host network.
func runTopo(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag topo", flag.ContinueOnError)
	var common Common
	common.registerTopology(fs, "JSON host description to inspect instead of a preset")
	showLinks := fs.Bool("links", false, "list every directed link")
	showComps := fs.Bool("components", false, "list every component")
	dumpJSON := fs.Bool("json", false, "dump the host description as JSON (feed back via -hostfile)")
	paths := fs.String("paths", "", "src,dst: print the k shortest paths between two components")
	k := fs.Int("k", 3, "number of alternative paths for -paths")
	if err := parse(fs, args); err != nil {
		return err
	}
	topo, err := common.Topology()
	if err != nil {
		return err
	}
	if *dumpJSON {
		data, err := topo.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", data)
		return nil
	}
	fmt.Fprintf(w, "preset %s: %d components, %d directed links\n",
		topo.Name, topo.NumComponents(), topo.NumLinks())

	counts := make(map[topology.Kind]int)
	var sockets []int
	for _, c := range topo.Components() {
		counts[c.Kind]++
		if c.Socket >= 0 && !slices.Contains(sockets, c.Socket) {
			sockets = append(sockets, c.Socket)
		}
	}
	slices.Sort(sockets)
	for k := topology.KindCPU; k <= topology.KindExternal; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-12s %d\n", k.String(), counts[k])
		}
	}
	// Aggregate memory bandwidth: the memory-channel links, memctrl -> DIMM.
	var memBW topology.Rate
	for _, l := range topo.Links() {
		if topo.Component(l.From).Kind == topology.KindMemCtrl && topo.Component(l.To).Kind == topology.KindDIMM {
			memBW += l.Capacity
		}
	}
	fmt.Fprintf(w, "  sockets: %v, aggregate memory bandwidth %v\n", sockets, memBW)

	if *showComps {
		fmt.Fprintln(w, "\ncomponents:")
		for _, c := range topo.Components() {
			fmt.Fprintf(w, "  %-24s %-12s socket=%d config=%v\n", c.ID, c.Kind, c.Socket, c.Config)
		}
	}
	if *showLinks {
		fmt.Fprintln(w, "\nlinks:")
		for _, l := range topo.Links() {
			fmt.Fprintf(w, "  %-52s class=(%d)%-13s cap=%-10s lat=%s\n",
				l.ID, l.Class.FigureRef(), l.Class, l.Capacity, l.BaseLatency)
		}
	}
	if *paths != "" {
		src, dst, ok := strings.Cut(*paths, ",")
		if !ok {
			return fmt.Errorf("-paths wants src,dst")
		}
		ps, err := topo.KShortestPaths(topology.CompID(src), topology.CompID(dst), *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%d pathway(s) %s -> %s:\n", len(ps), src, dst)
		for i, p := range ps {
			fmt.Fprintf(w, "  %d. [%v, bottleneck %v] %s\n", i+1, p.BaseLatency(), p.BottleneckCapacity(), p)
		}
	}
	return nil
}

// runExperiments regenerates the reproduction's experiment tables
// (E1-E10, see DESIGN.md §4 and EXPERIMENTS.md).
func runExperiments(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag experiments", flag.ContinueOnError)
	id := fs.String("run", "all", "experiment id (E1..E10) or 'all'")
	seed := fs.Int64("seed", 42, "simulation seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	list := experiments.Registry
	if *id != "all" {
		e, err := experiments.ByID(*id)
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	}
	for _, e := range list {
		start := time.Now()
		tab, err := e.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w, tab.Render())
		fmt.Fprintf(w, "(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
