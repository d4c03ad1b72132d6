package fabric

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// refOutcome is a send's outcome along rt evaluated from scratch:
// every hop looked up by link ID, its latency from the formula and its
// NIC's moderation parsed again, with no memo and no hop cache.
func refOutcome(f *Fabric, rt *Route, reqBytes, respBytes int64) routeMemo {
	lat, lostAt, ok := f.refTraverse(rt.path, reqBytes)
	m := routeMemo{lat: lat, lost: !ok, lostAt: lostAt}
	if ok && (respBytes != 0 || rt.src == rt.dst) {
		revLat, revLostAt, revOK := f.refTraverse(refReversePath(f, rt.path), respBytes)
		m.lat += revLat
		m.lost, m.lostAt = !revOK, revLostAt
	}
	return m
}

// TestRouteMemoMatchesTraverse drives a seeded schedule of tenant
// flows, demand changes, caps, failures, degradations, restores, IOMMU
// and interrupt-moderation set-config and advances through a fabric,
// and after each step sends over a fixed set of kept routes. Every
// send, memoized or not, must deliver exactly the latency, loss and
// losing link of the path evaluated from scratch at send time.
func TestRouteMemoMatchesTraverse(t *testing.T) {
	for _, preset := range []string{"two-socket", "dgx-style", "cxl-expanded"} {
		t.Run(preset, func(t *testing.T) {
			s := newHopSide(preset, false)
			f := s.fab
			devs := txDevices(s.topo)
			nics := s.topo.ComponentsOfKind(topology.KindNIC)
			rng := rand.New(rand.NewSource(11))
			var routes []*Route
			for len(routes) < 24 {
				src, dst := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
				if rt, err := f.ResolveRoute(src, dst, topology.Path{}); err == nil {
					routes = append(routes, rt)
				}
			}
			// Inbound external traffic crosses a moderating NIC.
			for _, nic := range nics {
				if rt, err := f.ResolveRoute("external0", nic.ID, topology.Path{}); err == nil {
					routes = append(routes, rt)
				}
			}
			want := make(map[uint64]routeMemo)
			var checked, hits, misses int
			check := func(r TxRecord) {
				w, ok := want[r.ID]
				if !ok {
					t.Fatalf("unexpected delivery of transaction %d", r.ID)
				}
				delete(want, r.ID)
				if r.RTT != w.lat || r.Lost != w.lost || r.LostAt != w.lostAt {
					t.Fatalf("%s->%s: delivered (rtt %d, lost %v at %q), from scratch (rtt %d, lost %v at %q)",
						r.Src, r.Dst, r.RTT, r.Lost, r.LostAt, w.lat, w.lost, w.lostAt)
				}
				checked++
			}
			seen := map[string]int{}
			for i := 0; i < 500; i++ {
				op := "moderation"
				if rng.Intn(10) == 0 {
					v := []string{"0", "5", "50", "x1", "99999999999999999999"}[rng.Intn(5)]
					nics[rng.Intn(len(nics))].SetConfig(topology.ConfigIntModeration, v)
				} else {
					op = s.mutate(rng)
				}
				seen[op]++
				f.recomputeIfDirty()
				for _, rt := range routes {
					if rng.Intn(3) == 0 {
						continue
					}
					req, resp := int64(64), int64(64)
					if rng.Intn(4) == 0 {
						req, resp = int64(rng.Intn(4096)), int64(rng.Intn(2))*512
					}
					m := &rt.memo
					if m.valid && m.latGen == f.latGen && m.cfgGen == s.topo.ConfigGen() &&
						m.reqBytes == req && m.respBytes == resp {
						hits++
					} else {
						misses++
					}
					w := refOutcome(f, rt, req, resp)
					if err := f.SendTransaction(TxOptions{Tenant: SystemTenant, Route: rt, ReqBytes: req, RespBytes: resp}, check); err != nil {
						t.Fatal(err)
					}
					want[f.nextID] = w
				}
				// Deliver every send before the next mutation, so
				// each one is checked against the inputs it saw.
				f.Engine().RunFor(2 * simtime.Second)
			}
			if len(want) != 0 {
				t.Fatalf("%d sends never delivered", len(want))
			}
			for _, op := range []string{"add", "remove", "demand", "cap", "fail", "degrade", "restore", "iommu", "moderation", "advance"} {
				if seen[op] == 0 {
					t.Fatalf("schedule never applied %q: %v", op, seen)
				}
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("%d memo hits and %d misses: the schedule does not exercise the memo", hits, misses)
			}
			t.Logf("%d sends checked, %d memo hits, %d misses", checked, hits, misses)
		})
	}
}
