package experiments

import (
	"fmt"
	"math"

	"repro/internal/anomaly"
	"repro/internal/counters"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// E5AttributionAccuracy quantifies §3.1 Q1: hardware counters are
// aggregate-only, so the best a counter-based monitor can do for
// per-tenant accounting is split a link's bytes evenly across active
// tenants; software interception sees the truth. Two tenants share a
// link at a 3:1 ratio and each method's attribution error is measured.
func E5AttributionAccuracy(seed int64) (Table, error) {
	engine := simtime.NewEngine(seed)
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, engine, fabric.DefaultConfig())
	path, err := topo.ShortestPath("nic0", "socket0.dimm0_0")
	if err != nil {
		return Table{}, err
	}
	heavy := &fabric.Flow{Tenant: "ml", Path: path, Demand: topology.GBps(15)}
	light := &fabric.Flow{Tenant: "kv", Path: path, Demand: topology.GBps(5)}
	if err := fab.AddFlow(heavy); err != nil {
		return Table{}, err
	}
	if err := fab.AddFlow(light); err != nil {
		return Table{}, err
	}
	bank, err := counters.NewBank(fab, counters.DefaultConfig())
	if err != nil {
		return Table{}, err
	}
	engine.RunFor(10 * simtime.Millisecond)

	link := path.Links[0].ID
	st, err := fab.LinkStatsFor(link)
	if err != nil {
		return Table{}, err
	}
	truth := map[fabric.TenantID]float64{
		"ml": st.TenantBytes["ml"],
		"kv": st.TenantBytes["kv"],
	}
	sample, err := bank.ReadLink(link)
	if err != nil {
		return Table{}, err
	}
	even := counters.AttributeEvenly(sample.Bytes, []fabric.TenantID{"kv", "ml"})

	t := Table{
		ID:      "E5",
		Title:   "Per-tenant attribution on a shared link (true split 3:1)",
		Columns: []string{"method", "tenant", "true bytes", "estimated", "relative error"},
		Notes: []string{
			"counters: PCM-like aggregate counter + even split across active tenants",
			"interception: the software shim's exact per-tenant accounting",
		},
	}
	relErr := func(est, tr float64) string {
		if tr == 0 {
			return "-"
		}
		return pct(math.Abs(est-tr) / tr)
	}
	for _, tn := range []fabric.TenantID{"kv", "ml"} {
		t.AddRow("counters+even-split", string(tn),
			fmt.Sprintf("%.0fMB", truth[tn]/1e6),
			fmt.Sprintf("%.0fMB", even[tn]/1e6),
			relErr(even[tn], truth[tn]))
	}
	// Interception reads the fabric's per-tenant accounting directly.
	src := telemetry.NewInterceptSource(fab)
	pts := src.Collect(nil)
	est := make(map[fabric.TenantID]float64)
	for _, p := range pts {
		if p.Link == link && p.Metric == telemetry.MetricBytes && p.Tenant != "" {
			est[p.Tenant] = p.Value
		}
	}
	for _, tn := range []fabric.TenantID{"kv", "ml"} {
		t.AddRow("interception", string(tn),
			fmt.Sprintf("%.0fMB", truth[tn]/1e6),
			fmt.Sprintf("%.0fMB", est[tn]/1e6),
			relErr(est[tn], truth[tn]))
	}
	return t, nil
}

// E6MonitoringOverhead sweeps the §3.1 Q2 design space: collection
// period x storage/processing placement, reporting the CPU consumed,
// the fabric bandwidth spent moving samples, and (for the rate-limited
// counter source) how stale the data gets when polled too fast.
func E6MonitoringOverhead(seed int64) (Table, error) {
	t := Table{
		ID:      "E6",
		Title:   "Monitoring pipeline overhead by placement and period",
		Columns: []string{"source", "placement", "period", "points/s", "collector cpu", "spool bandwidth", "stale"},
		Notes: []string{
			"collector cpu = modeled collection time per second of virtual time",
			"spool bandwidth = fabric load from moving samples to their store",
		},
	}
	type cfg struct {
		source    string
		placement telemetry.Placement
		period    simtime.Duration
	}
	var cases []cfg
	for _, pl := range []telemetry.Placement{telemetry.PlaceLocal, telemetry.PlaceMemory, telemetry.PlaceRemote} {
		for _, per := range []simtime.Duration{10 * simtime.Microsecond, 100 * simtime.Microsecond, simtime.Millisecond} {
			cases = append(cases, cfg{"intercept", pl, per})
		}
	}
	cases = append(cases,
		cfg{"counters", telemetry.PlaceLocal, 100 * simtime.Microsecond},
		cfg{"counters", telemetry.PlaceLocal, 2 * simtime.Millisecond},
	)
	for _, c := range cases {
		engine := simtime.NewEngine(seed)
		topo := topology.TwoSocketServer()
		fab := fabric.New(topo, engine, fabric.DefaultConfig())
		p, err := topo.ShortestPath("nic0", "socket0.dimm0_0")
		if err != nil {
			return Table{}, err
		}
		if err := fab.AddFlow(&fabric.Flow{Tenant: "bg", Path: p, Demand: topology.GBps(10)}); err != nil {
			return Table{}, err
		}
		var src telemetry.Source
		if c.source == "counters" {
			bank, err := counters.NewBank(fab, counters.DefaultConfig())
			if err != nil {
				return Table{}, err
			}
			src = telemetry.NewCounterSource(fab, bank)
		} else {
			src = telemetry.NewInterceptSource(fab)
		}
		pl, err := telemetry.NewPipeline(fab, src, telemetry.PipelineConfig{
			Period: c.period, Placement: c.placement,
			Collector: "cpu0", RemoteSink: "nic1",
		})
		if err != nil {
			return Table{}, err
		}
		if err := pl.Start(); err != nil {
			return Table{}, err
		}
		engine.RunFor(10 * simtime.Millisecond)
		o := pl.Overhead()
		pl.Stop()
		t.AddRow(c.source, string(c.placement), c.period.String(),
			fmt.Sprintf("%.0f", o.PointsPerSecond),
			fmt.Sprintf("%v/s", o.CPUPerSecond),
			o.SpoolRate.String(),
			pct(o.StaleFraction))
	}
	return t, nil
}

// E7FailureLocalization reproduces §3.1's motivating anomaly: a PCIe
// link silently degrades. The heartbeat platform must detect it and
// localize the link; a counter-threshold watcher (the state of the
// art the paper critiques) catches hard failures but is blind to
// latency-only degradation.
func E7FailureLocalization(seed int64) (Table, error) {
	t := Table{
		ID:      "E7",
		Title:   "Detection latency and localization by method, fault and heartbeat period",
		Columns: []string{"method", "fault", "period", "detected", "latency", "localized"},
		Notes: []string{
			"fault injected on pcieswitch0->nic0; degradation = -20% capacity, +10us latency",
			"counter watcher flags a link when its byte rate halves between windows",
		},
	}
	victim := topology.LinkID("pcieswitch0->nic0")

	heartbeatRun := func(period simtime.Duration, hard bool) error {
		engine := simtime.NewEngine(seed)
		topo := topology.TwoSocketServer()
		fab := fabric.New(topo, engine, fabric.DefaultConfig())
		cfg := anomaly.DefaultConfig()
		cfg.Period = period
		plat, err := anomaly.New(fab, anomaly.DefaultPairs(topo), cfg)
		if err != nil {
			return err
		}
		if err := plat.Start(); err != nil {
			return err
		}
		engine.RunFor(simtime.Duration(cfg.CalibrationRounds+3) * period)
		injectAt := engine.Now()
		if hard {
			if err := fab.FailLink(victim); err != nil {
				return err
			}
		} else {
			if err := fab.DegradeLink(victim, 0.2, 10*simtime.Microsecond); err != nil {
				return err
			}
		}
		deadline := injectAt.Add(simtime.Duration(50) * period)
		for engine.Now() < deadline && len(plat.Detections()) == 0 {
			engine.RunFor(period)
		}
		dets := plat.Detections()
		fault := "degradation"
		if hard {
			fault = "hard failure"
		}
		if len(dets) == 0 {
			t.AddRow("heartbeats", fault, period.String(), "no", "-", "-")
			return nil
		}
		d := dets[0]
		localized := false
		rev := topo.Link(victim).Reverse
		if len(d.Suspects) > 0 && (d.Suspects[0].Link == victim || d.Suspects[0].Link == rev) {
			localized = true
		}
		t.AddRow("heartbeats", fault, period.String(), "yes",
			d.At.Sub(injectAt).String(), fmt.Sprintf("%v", localized))
		return nil
	}
	for _, period := range []simtime.Duration{50 * simtime.Microsecond, 100 * simtime.Microsecond, 500 * simtime.Microsecond} {
		if err := heartbeatRun(period, false); err != nil {
			return Table{}, err
		}
	}
	if err := heartbeatRun(100*simtime.Microsecond, true); err != nil {
		return Table{}, err
	}

	counterRun := func(hard bool) error {
		engine := simtime.NewEngine(seed)
		topo := topology.TwoSocketServer()
		fab := fabric.New(topo, engine, fabric.DefaultConfig())
		// Moderate background load crossing the victim so counters
		// have signal: 5 GB/s against 27.8 GB/s effective capacity.
		p, err := topo.ShortestPath("external0", "socket0.dimm0_0")
		if err != nil {
			return err
		}
		rev, err := topo.ShortestPath("socket0.dimm0_0", "external0")
		if err != nil {
			return err
		}
		if err := fab.AddFlow(&fabric.Flow{Tenant: "bg", Path: p, Demand: topology.GBps(5)}); err != nil {
			return err
		}
		if err := fab.AddFlow(&fabric.Flow{Tenant: "bg", Path: rev, Demand: topology.GBps(5)}); err != nil {
			return err
		}
		bank, err := counters.NewBank(fab, counters.DefaultConfig())
		if err != nil {
			return err
		}
		window := 500 * simtime.Microsecond
		prev := make(map[topology.LinkID]counters.Sample)
		prevRate := make(map[topology.LinkID]topology.Rate)
		warm := 4
		var detectedAt simtime.Time
		var suspect topology.LinkID
		injectAt := simtime.Time(-1)
		for round := 0; round < 24 && detectedAt == 0; round++ {
			engine.RunFor(window)
			if round == 8 {
				injectAt = engine.Now()
				if hard {
					_ = fab.FailLink(victim)
				} else {
					_ = fab.DegradeLink(victim, 0.2, 10*simtime.Microsecond)
				}
			}
			for _, l := range topo.Links() {
				s, err := bank.ReadLink(l.ID)
				if err != nil {
					continue
				}
				if ps, ok := prev[l.ID]; ok && s.At > ps.At {
					rate, _ := counters.RateBetween(ps, s)
					if round > warm && prevRate[l.ID] > topology.GBps(1) && rate < prevRate[l.ID]/2 {
						detectedAt = engine.Now()
						suspect = l.ID
					}
					prevRate[l.ID] = rate
				}
				prev[l.ID] = s
			}
		}
		fault := "degradation"
		if hard {
			fault = "hard failure"
		}
		if detectedAt == 0 || injectAt < 0 {
			t.AddRow("counter-threshold", fault, window.String(), "no", "-", "-")
			return nil
		}
		localized := suspect == victim || suspect == topo.Link(victim).Reverse
		t.AddRow("counter-threshold", fault, window.String(), "yes",
			detectedAt.Sub(injectAt).String(), fmt.Sprintf("%v", localized))
		return nil
	}
	if err := counterRun(false); err != nil {
		return Table{}, err
	}
	if err := counterRun(true); err != nil {
		return Table{}, err
	}
	return t, nil
}
