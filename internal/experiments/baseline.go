package experiments

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E1Figure1 measures, on the two-socket preset, the saturated
// throughput and idle one-way latency of a representative link of
// every Figure 1 class, and checks each against the paper's published
// envelope. This is the direct reproduction of the paper's only
// quantitative artifact.
func E1Figure1(seed int64) (Table, error) {
	engine := simtime.NewEngine(seed)
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, engine, fabric.DefaultConfig())
	t := Table{
		ID:      "E1",
		Title:   "Figure 1 link classes: measured vs paper envelope (two-socket host)",
		Columns: []string{"item", "class", "paper capacity", "measured", "paper latency", "measured", "in envelope"},
		Notes: []string{
			"PCIe capacity measured below raw (a constant 0.87 PCIe efficiency)",
			"measured latency is the idle one-way hop latency; capacity is a saturating flow's allocated rate",
		},
	}
	for class := topology.ClassInterSocket; class <= topology.ClassInterHost; class++ {
		link, err := topology.RepresentativeLink(topo, class)
		if err != nil {
			return Table{}, err
		}
		env := topology.PaperEnvelope(class)
		// Saturate the single-link path with one greedy flow.
		path := topology.Path{Links: []*topology.Link{link}}
		fl := &fabric.Flow{Tenant: "probe", Path: path}
		if err := fab.AddFlow(fl); err != nil {
			return Table{}, err
		}
		measuredCap := fl.Rate()
		fab.RemoveFlow(fl)
		measuredLat, err := fab.PathLatency(path)
		if err != nil {
			return Table{}, err
		}
		ok := env.Contains(measuredCap, measuredLat)
		t.AddRow(
			fmt.Sprintf("(%d)", class.FigureRef()),
			class.String(),
			fmt.Sprintf("%v-%v", env.MinCapacity, env.MaxCapacity),
			measuredCap.String(),
			fmt.Sprintf("%v-%v", env.MinLatency, env.MaxLatency),
			measuredLat.String(),
			fmt.Sprintf("%v", ok),
		)
	}
	return t, nil
}

// e2Path builds the paper's end-to-end example: a remote access
// entering at nic0 and landing in socket-1 memory, traversing classes
// (5), (4), (3), (2) and (1).
func e2Path(topo *topology.Topology) (topology.Path, error) {
	head, err := topo.ShortestPath("external0", "nic0")
	if err != nil {
		return topology.Path{}, err
	}
	tail, err := topo.ShortestPath("nic0", "socket1.dimm0_0")
	if err != nil {
		return topology.Path{}, err
	}
	return topology.Path{Links: append(append([]*topology.Link(nil), head.Links...), tail.Links...)}, nil
}

// E2LatencyBreakdown reproduces the §2 claim that "the sum latency of
// end-to-end access, such as a remote RDMA access traversing all the
// (1) to (5), can make the intra-host network the potential
// bottleneck": it attributes one-way latency to each link class along
// the full remote-to-memory path, then shows congestion inflating the
// intra-host share, plus the queueing-model-off ablation.
func E2LatencyBreakdown(seed int64) (Table, error) {
	engine := simtime.NewEngine(seed)
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, engine, fabric.DefaultConfig())
	path, err := e2Path(topo)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "E2",
		Title:   "One-way latency of a remote access traversing classes (5)->(1), by scenario",
		Columns: []string{"scenario", "inter-host", "intra-host", "total", "intra-host share"},
		Notes: []string{
			"path: external0 -> nic0 -> pcie -> socket0 -> UPI -> socket1 memory",
			"congested = RDMA loopback antagonist saturating the NIC PCIe links",
		},
	}
	measure := func(f *fabric.Fabric) (inter, intra float64, err error) {
		for _, l := range path.Links {
			one := topology.Path{Links: []*topology.Link{l}}
			lat, err := f.PathLatency(one)
			if err != nil {
				return 0, 0, err
			}
			if l.Class == topology.ClassInterHost {
				inter += float64(lat)
			} else {
				intra += float64(lat)
			}
		}
		return inter, intra, nil
	}
	addRow := func(name string, f *fabric.Fabric) error {
		inter, intra, err := measure(f)
		if err != nil {
			return err
		}
		total := inter + intra
		t.AddRow(name, microsStr(inter), microsStr(intra), microsStr(total), pct(intra/total))
		return nil
	}
	if err := addRow("idle", fab); err != nil {
		return Table{}, err
	}
	lb, err := workload.StartLoopback(fab, "antagonist", "nic0", "socket0.dimm0_0")
	if err != nil {
		return Table{}, err
	}
	engine.RunFor(100 * simtime.Microsecond)
	if err := addRow("congested", fab); err != nil {
		return Table{}, err
	}
	lb.Stop()
	// Ablation: queueing model disabled.
	ablEngine := simtime.NewEngine(seed)
	abl := fabric.New(topo, ablEngine, fabric.Config{QueueingFactor: 0, PCIeEfficiency: 0.87})
	if _, err := workload.StartLoopback(abl, "antagonist", "nic0", "socket0.dimm0_0"); err != nil {
		return Table{}, err
	}
	ablEngine.RunFor(100 * simtime.Microsecond)
	if err := addRow("congested, queueing model off (ablation)", abl); err != nil {
		return Table{}, err
	}
	return t, nil
}

// E3InterferenceBaseline reproduces the §2 co-location story on an
// unmanaged fabric: the KV store does not use the GPU at all, yet its
// tail latency collapses when the ML trainer (and worse, the RDMA
// loopback antagonist) saturates the shared PCIe and memory links.
func E3InterferenceBaseline(seed int64) (Table, error) {
	t := Table{
		ID:      "E3",
		Title:   "KV-store latency under co-location, unmanaged fabric",
		Columns: []string{"scenario", "kv p50", "kv p99", "kv mean", "ml throughput"},
		Notes: []string{
			"KV: closed-loop 64B/4KiB GETs from external0 to socket0 memory",
			"ML: transfer-bound 64MiB batch staging from the same memory into gpu0",
		},
	}
	run := func(withML, withLoopback bool) (p50, p99, mean simtime.Duration, mlTp topology.Rate, err error) {
		engine := simtime.NewEngine(seed)
		fab := fabric.New(topology.TwoSocketServer(), engine, fabric.DefaultConfig())
		kv, err := workload.StartKV(fab, workload.DefaultKVConfig("kv"))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		var ml *workload.MLTrainer
		if withML {
			ml, err = workload.StartML(fab, workload.DefaultMLConfig("ml"))
			if err != nil {
				return 0, 0, 0, 0, err
			}
		}
		if withLoopback {
			if _, err := workload.StartLoopback(fab, "evil", "nic0", "socket0.dimm0_0"); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		engine.RunFor(2 * simtime.Millisecond)
		h := kv.Latency()
		if ml != nil {
			mlTp = ml.Throughput()
		}
		return h.Percentile(50), h.Percentile(99), h.Mean(), mlTp, nil
	}
	type scenario struct {
		name             string
		withML, withLoop bool
	}
	for _, s := range []scenario{
		{"kv alone", false, false},
		{"kv + ml trainer", true, false},
		{"kv + ml + rdma loopback", true, true},
	} {
		p50, p99, mean, mlTp, err := run(s.withML, s.withLoop)
		if err != nil {
			return Table{}, err
		}
		tp := "-"
		if s.withML {
			tp = mlTp.String()
		}
		t.AddRow(s.name, p50.String(), p99.String(), mean.String(), tp)
	}
	return t, nil
}

// E4DDIOThrashing reproduces the §2 cache-thrashing pathway: two
// high-bandwidth DDIO writers overflow the LLC's I/O ways, and the
// evicted data consumes memory-bus bandwidth that a single fitting
// writer never touches.
func E4DDIOThrashing(seed int64) (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "DDIO overflow: working set vs LLC I/O ways and induced DRAM traffic",
		Columns: []string{"scenario", "working set", "ddio capacity", "miss fraction", "spill rate", "memory-bus load"},
		Notes: []string{
			"spill = writeback of evicted I/O data; the refetch doubles it on the bus",
			"drain window 200us, 30MiB LLC, 2 of 11 ways for DDIO (Cascade-Lake-like)",
		},
	}
	run := func(name string, rates []topology.Rate, ddioOn bool) error {
		engine := simtime.NewEngine(seed)
		topo := topology.TwoSocketServer()
		if !ddioOn {
			topo.Component("socket0.llc").SetConfig(topology.ConfigDDIO, "off")
		}
		fab := fabric.New(topo, engine, fabric.DefaultConfig())
		mgr, err := cachesim.NewManager(fab, cachesim.DefaultConfig())
		if err != nil {
			return err
		}
		for i, r := range rates {
			if err := mgr.AddStream(cachesim.StreamID(fmt.Sprintf("s%d", i)),
				fabric.TenantID(fmt.Sprintf("t%d", i)), 0, r); err != nil {
				return err
			}
		}
		engine.RunFor(100 * simtime.Microsecond)
		ws, cap := mgr.Occupancy(0)
		miss, _ := mgr.MissFraction("s0")
		var memLoad topology.Rate
		for _, st := range fab.AllLinkStats() {
			l := fab.Topology().Link(st.Link)
			from := fab.Topology().Component(l.From)
			to := fab.Topology().Component(l.To)
			if from.Kind == topology.KindMemCtrl && to.Kind == topology.KindDIMM && to.Socket == 0 {
				memLoad += st.CurrentRate
			}
			if from.Kind == topology.KindDIMM && to.Kind == topology.KindMemCtrl && from.Socket == 0 {
				memLoad += st.CurrentRate
			}
		}
		t.AddRow(name,
			fmt.Sprintf("%.1fMB", float64(ws)/1e6),
			fmt.Sprintf("%.1fMB", float64(cap)/1e6),
			pct(miss),
			mgr.SpillRate(0).String(),
			memLoad.String(),
		)
		return nil
	}
	if err := run("1 writer @ 20GB/s (fits)", []topology.Rate{topology.GBps(20)}, true); err != nil {
		return Table{}, err
	}
	if err := run("2 writers @ 20GB/s (thrash)", []topology.Rate{topology.GBps(20), topology.GBps(20)}, true); err != nil {
		return Table{}, err
	}
	if err := run("2 writers @ 20GB/s, DDIO off", []topology.Rate{topology.GBps(20), topology.GBps(20)}, false); err != nil {
		return Table{}, err
	}
	return t, nil
}
