package anomaly

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// refRoundFn is the heartbeat round before routes, completion
// callbacks and vote windows were pinned per pair: every probe sends
// over the pair's path with a fresh closure, and every vote looks its
// windows up by link ID. TestPlatformMatchesReference holds the
// platform to it.
func (p *Platform) refRoundFn() {
	p.round++
	p.mRounds.Inc()
	p.mProbes.Add(uint64(len(p.pairs)))
	if p.tracer.Enabled() {
		p.tracer.Emit(obs.Event{
			Kind: obs.KindHeartbeat, Virtual: p.fab.Engine().Now(),
			Value: float64(len(p.pairs)),
		})
	}
	p.slot = (p.slot + 1) % p.cfg.WindowRounds
	for _, lw := range p.links {
		lw.bad[p.slot] = 0
		lw.total[p.slot] = 0
	}
	for _, ps := range p.pairs {
		ps := ps
		p.probesSent++
		err := p.fab.SendTransaction(fabric.TxOptions{
			Tenant: fabric.SystemTenant,
			Src:    ps.pair.Src, Dst: ps.pair.Dst,
			Path:     ps.path,
			ReqBytes: p.cfg.ProbeBytes, RespBytes: p.cfg.ProbeBytes,
		}, func(r fabric.TxRecord) { p.refOnResult(ps, r) })
		if err != nil {
			p.refOnResult(ps, fabric.TxRecord{Lost: true})
		}
	}
}

// refOnResult is onResult voting through refVote (its trace events
// left out: the test attaches no tracer).
func (p *Platform) refOnResult(ps *pairState, r fabric.TxRecord) {
	ps.lastRTT, ps.lastLost = r.RTT, r.Lost
	if p.round <= p.cfg.CalibrationRounds {
		if !r.Lost {
			ps.calSamples = append(ps.calSamples, r.RTT)
			var sum simtime.Duration
			for _, s := range ps.calSamples {
				sum += s
			}
			ps.baseline = sum / simtime.Duration(len(ps.calSamples))
		}
		return
	}
	bad := r.Lost
	if !bad && ps.baseline > 0 {
		bad = float64(r.RTT) > float64(ps.baseline)*p.cfg.LatencyFactor
	}
	p.refVote(ps.path, bad)
	if !bad {
		ps.consecBad = 0
		if ps.alerted {
			ps.alerted = false
			p.mCleared.Inc()
		}
		return
	}
	ps.consecBad++
	if ps.consecBad >= p.cfg.ConsecutiveBad && !ps.alerted {
		ps.alerted = true
		p.detections = append(p.detections, Detection{
			At: p.fab.Engine().Now(), Pair: ps.pair, Lost: r.Lost, Suspects: p.Suspects(),
		})
		p.mDetections.Inc()
	}
}

// refVote records a heartbeat outcome on every link of its path (both
// directions: the response traveled the reverse).
func (p *Platform) refVote(path topology.Path, bad bool) {
	record := func(id topology.LinkID) {
		lw := p.links[id]
		if lw == nil {
			lw = &linkWindow{
				bad:   make([]int, p.cfg.WindowRounds),
				total: make([]int, p.cfg.WindowRounds),
			}
			p.links[id] = lw
		}
		lw.total[p.slot]++
		if bad {
			lw.bad[p.slot]++
		}
	}
	for _, l := range path.Links {
		record(l.ID)
		record(l.Reverse)
	}
}

// hbSide is one host of the differential pair.
type hbSide struct {
	fab     *fabric.Fabric
	topo    *topology.Topology
	p       *Platform
	flows   []*fabric.Flow
	sniffed []fabric.TxRecord
}

func newHBSide(t *testing.T, ref bool) *hbSide {
	t.Helper()
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, simtime.NewEngine(5), fabric.DefaultConfig())
	p, err := New(fab, DefaultPairs(topo), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		p.ticker = fab.Engine().Every(p.cfg.Period, p.refRoundFn)
	} else if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	s := &hbSide{fab: fab, topo: topo, p: p}
	fab.AttachSniffer(func(r fabric.TxRecord) { s.sniffed = append(s.sniffed, r) })
	return s
}

// step applies one seeded action, then runs the host for up to 600us.
func (s *hbSide) step(rng *rand.Rand) {
	links := s.topo.Links()
	devs := []topology.CompID{"gpu0", "gpu1", "nic0", "nic1", "ssd0", "ssd1", "socket0.dimm0_0", "socket1.dimm1_0"}
	switch rng.Intn(6) {
	case 0: // tenant load, which inflates heartbeat RTTs
		src, dst := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
		if p, err := s.topo.ShortestPath(src, dst); err == nil && p.Hops() > 0 {
			fl := &fabric.Flow{Tenant: "load", Path: p, Demand: topology.GBps(float64(5 + rng.Intn(60)))}
			if s.fab.AddFlow(fl) == nil {
				s.flows = append(s.flows, fl)
			}
		}
	case 1:
		if len(s.flows) > 0 {
			i := rng.Intn(len(s.flows))
			s.fab.RemoveFlow(s.flows[i])
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
		}
	case 2:
		l := links[rng.Intn(len(links))]
		_ = s.fab.DegradeLink(l.ID, rng.Float64()*0.95, simtime.Duration(rng.Intn(5000)))
	case 3:
		l := links[rng.Intn(len(links))]
		if rng.Intn(3) == 0 {
			_ = s.fab.FailLink(l.ID)
		} else {
			_ = s.fab.RestoreLink(l.ID)
		}
	case 4:
		rps := s.topo.ComponentsOfKind(topology.KindRootPort)
		rps[rng.Intn(len(rps))].SetConfig(topology.ConfigIOMMU, []string{"translate", "passthrough"}[rng.Intn(2)])
		s.topo.Component("nic0").SetConfig(topology.ConfigIntModeration, []string{"0", "20"}[rng.Intn(2)])
	}
	s.fab.Engine().RunFor(simtime.Duration(rng.Intn(600)) * simtime.Microsecond)
}

// TestPlatformMatchesReference runs the heartbeat platform and the
// reference round (per-probe closures, per-vote map lookups) on two
// identical two-socket hosts under the same seeded schedule of load,
// degradations, failures, restores and config changes. After every
// step both must agree on every probe record, every vote window,
// detections with their suspects, and per-pair state.
func TestPlatformMatchesReference(t *testing.T) {
	got, want := newHBSide(t, false), newHBSide(t, true)
	rngGot, rngWant := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	probes := 0
	for i := 0; i < 300; i++ {
		got.step(rngGot)
		want.step(rngWant)
		if !reflect.DeepEqual(got.sniffed, want.sniffed) {
			t.Fatalf("step %d: probe records diverge (%d vs %d)", i, len(got.sniffed), len(want.sniffed))
		}
		probes += len(got.sniffed)
		got.sniffed, want.sniffed = got.sniffed[:0], want.sniffed[:0]
		if !reflect.DeepEqual(got.p.links, want.p.links) {
			t.Fatalf("step %d: vote windows diverge", i)
		}
		if g, w := got.p.Detections(), want.p.Detections(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: detections diverge:\n got %+v\nwant %+v", i, g, w)
		}
		if g, w := got.p.PairStats(), want.p.PairStats(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: pair stats diverge", i)
		}
		if g, w := got.p.Suspects(), want.p.Suspects(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: suspects diverge:\n got %+v\nwant %+v", i, g, w)
		}
		if got.p.Rounds() != want.p.Rounds() || got.p.ProbesSent() != want.p.ProbesSent() {
			t.Fatalf("step %d: rounds/probes diverge", i)
		}
	}
	var lost, slow int
	for _, d := range got.p.Detections() {
		if d.Lost {
			lost++
		} else {
			slow++
		}
	}
	if lost == 0 || slow == 0 {
		t.Fatalf("schedule too tame: %d lost and %d latency detections", lost, slow)
	}
	t.Logf("%d probes, %d lost and %d latency detections", probes, lost, slow)
}
