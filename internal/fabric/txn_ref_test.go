package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// refSendTransaction is the send path before routes were resolved
// once: the path and its reverse are looked up link by link on every
// send, and each delivery is a fresh closure. It is the reference
// TestSendTransactionMatchesReference holds SendTransaction to.
func (f *Fabric) refSendTransaction(opts TxOptions, cb func(TxRecord)) error {
	if opts.ReqBytes < 0 || opts.RespBytes < 0 {
		return fmt.Errorf("fabric: negative transaction size")
	}
	path := opts.Path
	if path.Hops() == 0 {
		p, err := f.topo.ShortestPath(opts.Src, opts.Dst)
		if err != nil {
			return err
		}
		path = p
	} else {
		if path.Src() != opts.Src || path.Dst() != opts.Dst {
			return fmt.Errorf("fabric: pinned path endpoints %s->%s do not match %s->%s",
				path.Src(), path.Dst(), opts.Src, opts.Dst)
		}
	}
	f.recomputeIfDirty()
	f.txStats.Sent++
	if f.met != nil {
		f.met.txSent.Inc()
	}
	f.nextID++
	rec := TxRecord{
		ID: f.nextID, Tenant: opts.Tenant,
		Src: opts.Src, Dst: opts.Dst, Path: path,
		ReqBytes: opts.ReqBytes, RespBytes: opts.RespBytes,
		Sent: f.engine.Now(),
	}

	deliver := func(r TxRecord) {
		r.Done = f.engine.Now()
		r.RTT = r.Done.Sub(r.Sent)
		if r.Lost {
			f.txStats.Lost++
			if f.met != nil {
				f.met.txLost.Inc()
			}
		} else {
			f.txStats.Completed++
			if f.met != nil {
				f.met.txCompleted.Inc()
			}
		}
		f.emitRecord(r)
		if cb != nil {
			cb(r)
		}
	}

	fwdLat, failedAt, ok := f.refTraverse(path, opts.ReqBytes)
	if !ok {
		f.engine.After(fwdLat, func() {
			rec.Lost = true
			rec.LostAt = failedAt
			deliver(rec)
		})
		return nil
	}
	if opts.RespBytes == 0 && rec.Src != rec.Dst {
		f.engine.After(fwdLat, func() { deliver(rec) })
		return nil
	}
	rev := refReversePath(f, path)
	revLat, revFailedAt, revOK := f.refTraverse(rev, opts.RespBytes)
	total := fwdLat + revLat
	f.engine.After(total, func() {
		if !revOK {
			rec.Lost = true
			rec.LostAt = revFailedAt
		}
		deliver(rec)
	})
	return nil
}

// refTraverse is traverse over a topology path, resolving each hop's
// link state and moderating NIC by lookup and evaluating each hop's
// latency from scratch.
func (f *Fabric) refTraverse(path topology.Path, bytes int64) (simtime.Duration, topology.LinkID, bool) {
	var lat simtime.Duration
	bottleneck := topology.Rate(0)
	for i, l := range path.Links {
		ls := f.links[l.ID]
		if ls == nil {
			return lat, l.ID, false
		}
		if ls.failed {
			return lat, l.ID, false
		}
		lat += refHopLatency(f, ls)
		if l.Class == topology.ClassInterHost {
			if nic := f.topo.Component(l.To); nic != nil && nic.Kind == topology.KindNIC {
				lat += moderationDelay(nic)
			}
		}
		avail := ls.capacity - ls.currentRate
		if avail < ls.capacity/100 {
			avail = ls.capacity / 100
		}
		if i == 0 || avail < bottleneck {
			bottleneck = avail
		}
	}
	if bytes > 0 && bottleneck > 0 {
		lat += bottleneck.TimeToSend(bytes)
	}
	return lat, "", true
}

// refReversePath maps each link of p to its reverse, in opposite order.
func refReversePath(f *Fabric, p topology.Path) topology.Path {
	links := make([]*topology.Link, p.Hops())
	for i, l := range p.Links {
		links[p.Hops()-1-i] = f.topo.Link(l.Reverse)
	}
	return topology.Path{Links: links}
}

// txTrace is what one fabric of the differential pair observed.
type txTrace struct {
	sniffed, delivered []TxRecord
	errs               []string
}

// txSide is one fabric of the differential pair and the send
// function it is driven through.
type txSide struct {
	fab  *Fabric
	topo *topology.Topology
	send func(TxOptions, func(TxRecord)) error
	// ref marks the reference side, which cannot carry routes: it
	// resolves every send again, which is what a route must equal.
	ref    bool
	routes map[[2]topology.CompID]*Route
	flows  []*Flow
	tr     txTrace
	// detach is the second sniffer's detach, nil while detached.
	detach func()
}

func newTxSide(t *testing.T, preset string, ref bool) *txSide {
	t.Helper()
	topo := topology.Presets[preset]()
	f := New(topo, simtime.NewEngine(7), DefaultConfig())
	s := &txSide{fab: f, topo: topo, ref: ref, routes: make(map[[2]topology.CompID]*Route)}
	s.send = f.SendTransaction
	if ref {
		s.send = f.refSendTransaction
	}
	f.AttachSniffer(func(r TxRecord) { s.tr.sniffed = append(s.tr.sniffed, r) })
	return s
}

// txDevices returns the components transactions run between: every
// non-memory-controller endpoint a probe or DMA would use.
func txDevices(topo *topology.Topology) []topology.CompID {
	var out []topology.CompID
	for _, c := range topo.Components() {
		switch c.Kind {
		case topology.KindGPU, topology.KindNIC, topology.KindSSD, topology.KindFPGA,
			topology.KindCPU, topology.KindDIMM, topology.KindExternal:
			out = append(out, c.ID)
		}
	}
	return out
}

// step applies one seeded action to the side. Both sides draw from
// identically seeded generators, so they take the same actions.
func (s *txSide) step(t *testing.T, rng *rand.Rand) {
	t.Helper()
	devs := txDevices(s.topo)
	links := s.topo.Links()
	pick := func() topology.CompID { return devs[rng.Intn(len(devs))] }
	record := func(r TxRecord) { s.tr.delivered = append(s.tr.delivered, r) }
	sendErr := func(err error) {
		if err != nil {
			s.tr.errs = append(s.tr.errs, err.Error())
		}
	}
	switch op := rng.Intn(10); op {
	case 0: // tenant flow, persistent or sized; a sized one sends on completion
		src, dst := pick(), pick()
		p, err := s.topo.ShortestPath(src, dst)
		if err != nil || p.Hops() == 0 {
			return
		}
		fl := &Flow{
			Tenant: TenantID(fmt.Sprintf("t%d", rng.Intn(4))), Path: p,
			Demand: topology.GBps(float64(1 + rng.Intn(40))),
		}
		if rng.Intn(2) == 0 {
			fl.Size = int64(1+rng.Intn(64)) << 10
			fl.OnComplete = func(simtime.Time) {
				sendErr(s.send(TxOptions{Tenant: fl.Tenant, Src: dst, Dst: src, ReqBytes: 64, RespBytes: 64}, record))
			}
		}
		if err := s.fab.AddFlow(fl); err == nil && fl.Size == 0 {
			s.flows = append(s.flows, fl)
		}
	case 1: // remove a persistent flow
		if len(s.flows) > 0 {
			i := rng.Intn(len(s.flows))
			s.fab.RemoveFlow(s.flows[i])
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
		}
	case 2: // degrade
		l := links[rng.Intn(len(links))]
		_ = s.fab.DegradeLink(l.ID, rng.Float64()*0.9, simtime.Duration(rng.Intn(500)))
	case 3: // fail, or (twice as often) restore
		l := links[rng.Intn(len(links))]
		if rng.Intn(3) == 0 {
			_ = s.fab.FailLink(l.ID)
		} else {
			_ = s.fab.RestoreLink(l.ID)
		}
	case 4: // set-config of IOMMU translation or interrupt moderation
		if rng.Intn(2) == 0 {
			rps := s.topo.ComponentsOfKind(topology.KindRootPort)
			mode := []string{"translate", "passthrough", "off"}[rng.Intn(3)]
			rps[rng.Intn(len(rps))].SetConfig(topology.ConfigIOMMU, mode)
		} else {
			nics := s.topo.ComponentsOfKind(topology.KindNIC)
			v := []string{"0", "5", "50", "x1"}[rng.Intn(4)]
			nics[rng.Intn(len(nics))].SetConfig(topology.ConfigIntModeration, v)
		}
	case 5: // attach or detach a second sniffer
		if s.detach == nil {
			s.detach = s.fab.AttachSniffer(func(r TxRecord) { s.tr.sniffed = append(s.tr.sniffed, r) })
		} else {
			s.detach()
			s.detach = nil
		}
	case 6: // a malformed send
		if rng.Intn(2) == 0 {
			sendErr(s.send(TxOptions{Src: pick(), Dst: "nope"}, record))
		} else {
			sendErr(s.send(TxOptions{Src: pick(), Dst: pick(), ReqBytes: -1}, record))
		}
	default: // a burst of transactions: shortest path, pinned path, or resolved route
		for n := rng.Intn(12); n >= 0; n-- {
			src, dst := pick(), pick()
			opts := TxOptions{
				Tenant: TenantID(fmt.Sprintf("t%d", rng.Intn(4))), Src: src, Dst: dst,
				ReqBytes: int64(rng.Intn(3)) * 512, RespBytes: int64(rng.Intn(3)) * 64,
			}
			switch rng.Intn(3) {
			case 1:
				opts.Path, _ = s.topo.ShortestPath(src, dst)
			case 2:
				key := [2]topology.CompID{src, dst}
				rt, ok := s.routes[key]
				if !ok {
					var err error
					if rt, err = s.fab.ResolveRoute(src, dst, topology.Path{}); err != nil {
						sendErr(err)
						continue
					}
					s.routes[key] = rt
				}
				if !s.ref {
					opts.Route = rt
				}
			}
			sendErr(s.send(opts, record))
		}
	}
	s.fab.Engine().RunFor(simtime.Duration(rng.Intn(20_000)))
}

// TestSendTransactionMatchesReference drives a seeded schedule of tenant
// flows, degradations, failures and restores, IOMMU and moderation
// config changes, sniffer churn and transaction bursts through two
// identical fabrics: one sending through SendTransaction (routes
// resolved once where the sender keeps one), one through the
// per-send-lookup reference. After every step the two must have seen
// bit-identical records, errors and counters.
func TestSendTransactionMatchesReference(t *testing.T) {
	for _, preset := range []string{"two-socket", "dgx-style", "cxl-expanded"} {
		t.Run(preset, func(t *testing.T) {
			got, want := newTxSide(t, preset, false), newTxSide(t, preset, true)
			rngGot, rngWant := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
			var lost, inbound int
			for i := 0; i < 400; i++ {
				got.step(t, rngGot)
				want.step(t, rngWant)
				if !reflect.DeepEqual(got.tr, want.tr) {
					t.Fatalf("step %d: traces diverge:\n got %d sniffed, %d delivered, errs %v\nwant %d sniffed, %d delivered, errs %v",
						i, len(got.tr.sniffed), len(got.tr.delivered), got.tr.errs,
						len(want.tr.sniffed), len(want.tr.delivered), want.tr.errs)
				}
				if g, w := got.fab.TxStats(), want.fab.TxStats(); g != w {
					t.Fatalf("step %d: TxStats %+v, want %+v", i, g, w)
				}
			}
			for _, r := range got.tr.sniffed {
				if r.Lost {
					lost++
				}
				if r.Src == "external0" && !r.Lost {
					inbound++
				}
			}
			if lost == 0 || inbound == 0 || len(got.tr.errs) == 0 {
				t.Fatalf("schedule too tame: %d lost, %d inbound from external0, %d errors",
					lost, inbound, len(got.tr.errs))
			}
			t.Logf("%d records (%d lost), %d errors", len(got.tr.sniffed), lost, len(got.tr.errs))
		})
	}
}
