package arbiter

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/resmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// twoFlowLine builds a 100 B/s line a->b->c with one greedy flow per
// tenant and returns everything needed for assertions.
func twoFlowLine(t *testing.T, mode Mode) (*Arbiter, *fabric.Fabric, *simtime.Engine, *fabric.Flow, *fabric.Flow, topology.Path) {
	t.Helper()
	e := simtime.NewEngine(2)
	topo := topology.New("line")
	topo.MustAddComponent("a", topology.KindNIC, 0)
	topo.MustAddComponent("b", topology.KindPCIeSwitch, 0)
	topo.MustAddComponent("c", topology.KindDIMM, 0)
	topo.MustAddLink(topology.LinkSpec{A: "a", B: "b", Class: topology.ClassPCIeDown, Capacity: 100, BaseLatency: 10})
	topo.MustAddLink(topology.LinkSpec{A: "b", B: "c", Class: topology.ClassIntraSocket, Capacity: 100, BaseLatency: 10})
	fab := fabric.New(topo, e, fabric.Config{PCIeEfficiency: 1})
	p, err := topo.ShortestPath("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	kv := &fabric.Flow{Tenant: "kv", Path: p}
	ml := &fabric.Flow{Tenant: "ml", Path: p}
	if err := fab.AddFlow(kv); err != nil {
		t.Fatal(err)
	}
	if err := fab.AddFlow(ml); err != nil {
		t.Fatal(err)
	}
	a, err := New(fab, Config{Mode: mode, AdjustPeriod: 10 * simtime.Microsecond, BorrowFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return a, fab, e, kv, ml, p
}

func TestConfigValidation(t *testing.T) {
	e := simtime.NewEngine(1)
	fab := fabric.New(topology.MinimalHost(), e, fabric.DefaultConfig())
	bad := []Config{
		{Mode: "weird", AdjustPeriod: 1},
		{Mode: Strict, AdjustPeriod: 0},
		{Mode: Strict, AdjustPeriod: 1, BorrowFraction: 2},
	}
	for i, c := range bad {
		if _, err := New(fab, c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(fab, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestStrictGuaranteeEnforced(t *testing.T) {
	a, _, e, kv, ml, p := twoFlowLine(t, Strict)
	// Without arbitration: fair split 50/50.
	if kv.Rate() != 50 || ml.Rate() != 50 {
		t.Fatalf("pre-arbiter rates %v/%v", kv.Rate(), ml.Rate())
	}
	// Guarantee kv 80 B/s along the path.
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	if err := a.Install("kv", res); err != nil {
		t.Fatal(err)
	}
	_ = a.Start()
	e.RunFor(100 * simtime.Microsecond)
	if r := float64(kv.Rate()); r < 79.9 || r > 80.1 {
		t.Fatalf("guaranteed tenant rate %v, want 80", r)
	}
	if r := float64(ml.Rate()); r < 19.9 || r > 20.1 {
		t.Fatalf("bystander rate %v, want 20", r)
	}
}

func TestStrictWastesIdleReservation(t *testing.T) {
	a, fab, e, kv, ml, p := twoFlowLine(t, Strict)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	// kv goes idle (demand ~0); strict mode still caps ml at 20.
	_ = fab.SetDemand(kv, 1)
	e.RunFor(200 * simtime.Microsecond)
	if r := float64(ml.Rate()); r > 20.1 {
		t.Fatalf("strict bystander rate %v, want <= 20 (no work conservation)", r)
	}
}

func TestWorkConservingLendsIdleBandwidth(t *testing.T) {
	a, fab, e, kv, ml, p := twoFlowLine(t, WorkConserving)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	_ = fab.SetDemand(kv, 1)
	e.RunFor(500 * simtime.Microsecond)
	// ml should have borrowed well beyond its 20 B/s leftover.
	if r := float64(ml.Rate()); r < 50 {
		t.Fatalf("work-conserving bystander rate %v, want > 50", r)
	}
	// kv ramps back up: guarantee must be restored within a few
	// adjustment periods.
	_ = fab.SetDemand(kv, 0) // unconstrained again
	e.RunFor(500 * simtime.Microsecond)
	if r := float64(kv.Rate()); r < 79 {
		t.Fatalf("guarantee not restored after ramp-up: %v", r)
	}
}

func TestInstallValidation(t *testing.T) {
	a, _, _, _, _, _ := twoFlowLine(t, Strict)
	if err := a.Install("", resmodel.NewReservation()); err == nil {
		t.Fatal("empty tenant accepted")
	}
	bad := resmodel.NewReservation()
	bad.Add("zz->qq", 5)
	if err := a.Install("kv", bad); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestRemoveReleasesBandwidth(t *testing.T) {
	a, fab, e, kv, ml, p := twoFlowLine(t, Strict)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	e.RunFor(100 * simtime.Microsecond)
	if float64(ml.Rate()) > 20.1 {
		t.Fatal("precondition failed")
	}
	a.Remove("kv")
	e.RunFor(100 * simtime.Microsecond)
	if r := float64(ml.Rate()); r < 49 {
		t.Fatalf("after removal ml rate %v, want ~50 fair share", r)
	}
	if fab.CapCount() != 0 && float64(kv.Rate()) < 49 {
		t.Fatalf("stale caps after removal: %d caps, kv %v", fab.CapCount(), kv.Rate())
	}
	a.Remove("kv") // idempotent
}

func TestGuaranteedAndFreeMap(t *testing.T) {
	a, _, _, _, _, p := twoFlowLine(t, Strict)
	res := resmodel.NewReservation()
	res.AddPipe(p, 30)
	_ = a.Install("kv", res)
	g := a.Guaranteed("kv")
	if g.Rate(p.Links[0].ID) != 30 {
		t.Fatalf("guaranteed %v", g.Rate(p.Links[0].ID))
	}
	// Merging accumulates.
	_ = a.Install("kv", res)
	if a.Guaranteed("kv").Rate(p.Links[0].ID) != 60 {
		t.Fatal("install did not merge")
	}
	free := a.FreeMap()
	if free[p.Links[0].ID] != 40 {
		t.Fatalf("free %v, want 40", free[p.Links[0].ID])
	}
	capm := a.CapacityMap()
	if capm[p.Links[0].ID] != 100 {
		t.Fatalf("capacity %v", capm[p.Links[0].ID])
	}
	if a.Guaranteed("nobody").Total() != 0 {
		t.Fatal("unknown tenant has guarantees")
	}
}

func TestSystemTenantNeverCapped(t *testing.T) {
	a, fab, e, _, _, p := twoFlowLine(t, Strict)
	sys := &fabric.Flow{Tenant: fabric.SystemTenant, Path: p}
	_ = fab.AddFlow(sys)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	e.RunFor(100 * simtime.Microsecond)
	if _, ok := fab.TenantCap(p.Links[0].ID, fabric.SystemTenant); ok {
		t.Fatal("system tenant was capped")
	}
}

func TestAdjustmentLoopRuns(t *testing.T) {
	a, _, e, _, _, p := twoFlowLine(t, WorkConserving)
	res := resmodel.NewReservation()
	res.AddPipe(p, 10)
	_ = a.Install("kv", res)
	_ = a.Start()
	if err := a.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	e.RunFor(simtime.Millisecond)
	// 1ms / 10us = 100 ticks plus install passes.
	if a.Adjustments() < 100 {
		t.Fatalf("adjustments %d, want >= 100", a.Adjustments())
	}
	a.Stop()
	n := a.Adjustments()
	e.RunFor(simtime.Millisecond)
	if a.Adjustments() != n {
		t.Fatal("adjustments after Stop")
	}
	if a.Mode() != WorkConserving {
		t.Fatal("mode accessor wrong")
	}
}

// TestFreeMapDeterministicAcrossMapOrder is the regression test for
// the chaos harness's first determinism find: FreeMap accumulated
// guarantee subtractions in Go map iteration order, and the four rates
// below produce sums that differ in the last ulp depending on
// subtraction order. The scheduler feeds FreeMap into admission
// decisions, so an order-dependent ulp is enough to make a replayed
// journal diverge from the recorded run. Repeated calls must be
// bitwise identical.
func TestFreeMapDeterministicAcrossMapOrder(t *testing.T) {
	e := simtime.NewEngine(3)
	topo := topology.New("fat-line")
	topo.MustAddComponent("a", topology.KindNIC, 0)
	topo.MustAddComponent("b", topology.KindDIMM, 0)
	topo.MustAddLink(topology.LinkSpec{A: "a", B: "b", Class: topology.ClassIntraSocket, Capacity: 2e9, BaseLatency: 10})
	fab := fabric.New(topo, e, fabric.Config{PCIeEfficiency: 1})
	a, err := New(fab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	link := topo.Links()[0].ID
	// Order-sensitive in float64: different subtraction orders of
	// these four rates from 2e9 yield three distinct sums.
	rates := []topology.Rate{
		284946347.15323985, 286362432.1918807, 376668485.82092476, 388312247.45492679,
	}
	for i, r := range rates {
		res := resmodel.NewReservation()
		res.Add(link, r)
		if err := a.Install(fabric.TenantID(fmt.Sprintf("t%d", i)), res); err != nil {
			t.Fatal(err)
		}
	}
	want := a.FreeMap()[link]
	for i := 0; i < 400; i++ {
		if got := a.FreeMap()[link]; got != want {
			t.Fatalf("FreeMap call %d returned %.17g, first call returned %.17g", i, float64(got), float64(want))
		}
	}
	tenants := a.GuaranteedTenants()
	if len(tenants) != 4 || tenants[0] != "t0" || tenants[3] != "t3" {
		t.Fatalf("GuaranteedTenants = %v", tenants)
	}
}

// TestWorkConservingDecayReconvergesUnderChurn covers the ×0.7
// multiplicative back-off: after a borrow phase, a returning
// guaranteed tenant must reclaim its guarantee within a bounded number
// of adjust periods even while bystander churn keeps perturbing the
// baseline split and transiently reopening slack (which flips the
// arbiter between its lend and decay branches).
func TestWorkConservingDecayReconvergesUnderChurn(t *testing.T) {
	a, fab, e, kv, _, p := twoFlowLine(t, WorkConserving)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	if err := a.Install("kv", res); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	// Borrow phase: kv idles at 1 B/s, the ml bystander inflates its
	// cap well past its 20 B/s leftover share.
	_ = fab.SetDemand(kv, 1)
	e.RunFor(500 * simtime.Microsecond)
	if c, ok := fab.TenantCap(p.Links[0].ID, "ml"); !ok || float64(c) < 50 {
		t.Fatalf("borrow phase did not inflate ml cap: %v (ok=%v)", c, ok)
	}
	// Churn: a third tenant's flow appears and disappears every 30 us,
	// reshuffling the bystander set mid-reconvergence.
	var churn *fabric.Flow
	e.Every(30*simtime.Microsecond, func() {
		if churn == nil {
			churn = &fabric.Flow{Tenant: "churn", Path: p}
			_ = fab.AddFlow(churn)
		} else {
			fab.RemoveFlow(churn)
			churn = nil
		}
	})
	// Reconvergence phase: kv's demand returns. The decay must walk
	// ml's borrowed cap back toward its baseline within a bounded
	// number of adjust periods (generously 50 of the 10 us periods).
	_ = fab.SetDemand(kv, 0)
	const periods = 50
	converged := -1
	for i := 0; i < 2*periods; i++ {
		e.RunFor(10 * simtime.Microsecond)
		if float64(kv.Rate()) >= 79 {
			converged = i + 1
			break
		}
	}
	if converged < 0 {
		t.Fatalf("guaranteed tenant never reconverged: rate %v after %d periods", kv.Rate(), 2*periods)
	}
	if converged > periods {
		t.Fatalf("reconvergence took %d adjust periods, want <= %d", converged, periods)
	}
	// The reclaimed guarantee must then hold while churn continues.
	e.RunFor(500 * simtime.Microsecond)
	if r := float64(kv.Rate()); r < 79 {
		t.Fatalf("guarantee lost again under churn: %v", r)
	}
}

// refArbiter is the arbitration pass as it was before the arbiter
// kept per-link state: it rebuilds the reserved-link set, each link's
// sorted guaranteed tenants and the desired caps from the guarantees
// map on every pass. TestArbitrationPassMatchesReference runs it
// beside the Arbiter as the bit-identity reference.
type refArbiter struct {
	fab         *fabric.Fabric
	cfg         Config
	guarantees  map[fabric.TenantID]resmodel.Reservation
	installed   map[topology.LinkID]map[fabric.TenantID]topology.Rate
	adjustments uint64
}

func (a *refArbiter) Install(tenant fabric.TenantID, res resmodel.Reservation) {
	g, ok := a.guarantees[tenant]
	if !ok {
		g = resmodel.NewReservation()
		a.guarantees[tenant] = g
	}
	g.Merge(res)
	a.fab.Batch(a.applyLocked)
}

func (a *refArbiter) Remove(tenant fabric.TenantID) {
	if _, ok := a.guarantees[tenant]; !ok {
		return
	}
	delete(a.guarantees, tenant)
	a.fab.Batch(a.applyLocked)
}

func (a *refArbiter) sortedTenants() []fabric.TenantID {
	out := make([]fabric.TenantID, 0, len(a.guarantees))
	for t := range a.guarantees {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (a *refArbiter) freeMap() map[topology.LinkID]topology.Rate {
	free := make(map[topology.LinkID]topology.Rate)
	for _, l := range a.fab.Topology().Links() {
		free[l.ID], _ = a.fab.EffectiveCapacity(l.ID)
	}
	for _, t := range a.sortedTenants() {
		for l, r := range a.guarantees[t].Links {
			free[l] -= r
			if free[l] < 0 {
				free[l] = 0
			}
		}
	}
	return free
}

func (a *refArbiter) reservedLinks() []topology.LinkID {
	seen := make(map[topology.LinkID]bool)
	for _, g := range a.guarantees {
		for l := range g.Links {
			seen[l] = true
		}
	}
	out := make([]topology.LinkID, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (a *refArbiter) applyLocked() {
	a.adjustments++
	desired := make(map[topology.LinkID]map[fabric.TenantID]topology.Rate)
	setCap := func(link topology.LinkID, t fabric.TenantID, r topology.Rate) {
		m := desired[link]
		if m == nil {
			m = make(map[fabric.TenantID]topology.Rate)
			desired[link] = m
		}
		m[t] = r
		_ = a.fab.SetTenantCap(link, t, r)
	}
	for _, link := range a.reservedLinks() {
		capacity, err := a.fab.EffectiveCapacity(link)
		if err != nil {
			continue
		}
		guar := make(map[fabric.TenantID]topology.Rate)
		var totalGuar topology.Rate
		tenants := a.sortedTenants()
		guarTenants := tenants[:0]
		for _, t := range tenants {
			if r, ok := a.guarantees[t].Links[link]; ok && r > 0 {
				guar[t] = r
				totalGuar += r
				guarTenants = append(guarTenants, t)
			}
		}
		leftover := capacity - totalGuar
		if leftover < 0 {
			leftover = 0
		}
		var bystanders []fabric.TenantID
		for _, t := range a.fab.AppendTenantsOn(nil, link) {
			if t == fabric.SystemTenant {
				continue
			}
			if _, ok := guar[t]; !ok {
				bystanders = append(bystanders, t)
			}
		}
		baseline := func(t fabric.TenantID) topology.Rate {
			if r, ok := guar[t]; ok {
				return r
			}
			if len(bystanders) == 0 {
				return 0
			}
			return leftover / topology.Rate(len(bystanders))
		}
		all := append(append([]fabric.TenantID(nil), guarTenants...), bystanders...)
		switch a.cfg.Mode {
		case Strict:
			for _, t := range all {
				setCap(link, t, baseline(t))
			}
		case WorkConserving:
			var used topology.Rate
			for _, t := range all {
				used += a.fab.TenantRateOn(link, t)
			}
			slack := capacity - used
			n := len(all)
			if n == 0 {
				continue
			}
			prev := a.installed[link]
			for _, t := range all {
				base := baseline(t)
				var next topology.Rate
				if slack > capacity/100 {
					lend := topology.Rate(float64(slack) * a.cfg.BorrowFraction / float64(n))
					next = a.fab.TenantRateOn(link, t) + lend
				} else {
					cur, ok := prev[t]
					if !ok {
						cur = base
					}
					next = topology.Rate(float64(cur) * 0.7)
				}
				if next < base {
					next = base
				}
				setCap(link, t, next)
			}
		}
	}
	for link, prev := range a.installed {
		for t := range prev {
			if _, ok := desired[link][t]; !ok {
				_ = a.fab.ClearTenantCap(link, t)
			}
		}
	}
	a.installed = desired
}

// TestArbitrationPassMatchesReference is the differential gate for the
// kept-state arbitration pass: an Arbiter and refArbiter on two
// identical fabrics take the same 500 seeded steps of Install, Remove,
// flow churn, RunFor, DegradeLink and RestoreLink, in both modes.
// After every step and every adjust period of a RunFor, every link's
// caps, the free map and the pass count must be bit-identical.
func TestArbitrationPassMatchesReference(t *testing.T) {
	for _, mode := range []Mode{Strict, WorkConserving} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := Config{Mode: mode, AdjustPeriod: 10 * simtime.Microsecond, BorrowFraction: 0.9}
			build := func() (*fabric.Fabric, *simtime.Engine) {
				e := simtime.NewEngine(5)
				return fabric.New(topology.TwoSocketServer(), e, fabric.DefaultConfig()), e
			}
			fabA, engA := build()
			fabB, engB := build()
			a, err := New(fabA, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refArbiter{fab: fabB, cfg: cfg,
				guarantees: make(map[fabric.TenantID]resmodel.Reservation)}
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			engB.Every(cfg.AdjustPeriod, func() { ref.fab.Batch(ref.applyLocked) })

			topo := fabA.Topology()
			pairs := [][2]topology.CompID{
				{"nic0", "socket0.dimm0_0"}, {"nic0", "socket1.dimm1_0"}, {"gpu0", "socket0.dimm0_1"},
				{"gpu1", "nic1"}, {"ssd0", "socket0.dimm0_0"}, {"nic1", "socket1.dimm1_1"},
				{"gpu0", "gpu1"}, {"external0", "socket0.dimm0_0"},
			}
			var paths []topology.Path
			for _, pr := range pairs {
				p, err := topo.ShortestPath(pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				paths = append(paths, p)
			}
			tenants := []fabric.TenantID{"t0", "t1", "t2", "t3", "t4", "t5", fabric.SystemTenant}
			type flowPair struct{ a, b *fabric.Flow }
			var flows []flowPair
			degraded := map[topology.LinkID]bool{}

			check := func(step int, what string) {
				t.Helper()
				if a.Adjustments() != ref.adjustments {
					t.Fatalf("step %d (%s): %d passes, reference %d", step, what, a.Adjustments(), ref.adjustments)
				}
				freeA, freeB := a.FreeMap(), ref.freeMap()
				for _, l := range topo.Links() {
					ca, cb := fabA.CapsOn(l.ID), fabB.CapsOn(l.ID)
					if len(ca) != len(cb) {
						t.Fatalf("step %d (%s): %s caps %v, reference %v", step, what, l.ID, ca, cb)
					}
					for tn, r := range cb {
						if got, ok := ca[tn]; !ok || math.Float64bits(float64(got)) != math.Float64bits(float64(r)) {
							t.Fatalf("step %d (%s): %s/%s cap %v, reference %v", step, what, l.ID, tn, got, r)
						}
					}
					if math.Float64bits(float64(freeA[l.ID])) != math.Float64bits(float64(freeB[l.ID])) {
						t.Fatalf("step %d (%s): %s free %v, reference %v", step, what, l.ID, freeA[l.ID], freeB[l.ID])
					}
				}
			}

			rng := rand.New(rand.NewSource(27))
			for step := 0; step < 500; step++ {
				switch op := rng.Intn(10); {
				case op < 2: // Install
					tn := tenants[rng.Intn(len(tenants)-1)]
					res := resmodel.NewReservation()
					for n := 1 + rng.Intn(2); n > 0; n-- {
						// Irregular rates make float sums order-sensitive;
						// a zero rate names a link without guaranteeing it.
						var rate topology.Rate
						if rng.Intn(30) != 0 {
							rate = topology.GBps(rng.Float64() * 15)
						}
						res.AddPipe(paths[rng.Intn(len(paths))], rate)
					}
					if err := a.Install(tn, res); err != nil {
						t.Fatal(err)
					}
					ref.Install(tn, res)
					check(step, "install")
				case op < 3: // Remove
					tn := tenants[rng.Intn(len(tenants)-1)]
					a.Remove(tn)
					ref.Remove(tn)
					check(step, "remove")
				case op < 5: // flow churn
					if len(flows) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(flows))
						fabA.RemoveFlow(flows[i].a)
						fabB.RemoveFlow(flows[i].b)
						flows = append(flows[:i], flows[i+1:]...)
						check(step, "remove-flow")
						break
					}
					tn := tenants[rng.Intn(len(tenants))]
					p := paths[rng.Intn(len(paths))]
					var demand topology.Rate
					if rng.Intn(2) == 0 {
						demand = topology.GBps(float64(1 + rng.Intn(30)))
					}
					fa := &fabric.Flow{Tenant: tn, Path: p, Demand: demand}
					fb := &fabric.Flow{Tenant: tn, Path: p, Demand: demand}
					if err := fabA.AddFlow(fa); err != nil {
						t.Fatal(err)
					}
					if err := fabB.AddFlow(fb); err != nil {
						t.Fatal(err)
					}
					flows = append(flows, flowPair{fa, fb})
					check(step, "add-flow")
				case op < 8: // RunFor, checked after every adjust period
					for n := 1 + rng.Intn(6); n > 0; n-- {
						engA.RunFor(cfg.AdjustPeriod)
						engB.RunFor(cfg.AdjustPeriod)
						check(step, "run")
					}
				case op < 9: // DegradeLink
					p := paths[rng.Intn(len(paths))]
					l := p.Links[rng.Intn(len(p.Links))].ID
					frac := float64(rng.Intn(90)) / 100
					if err := fabA.DegradeLink(l, frac, 0); err != nil {
						t.Fatal(err)
					}
					_ = fabB.DegradeLink(l, frac, 0)
					degraded[l] = true
					check(step, "degrade")
				default: // RestoreLink
					for _, l := range topo.Links() {
						if degraded[l.ID] && rng.Intn(2) == 0 {
							_ = fabA.RestoreLink(l.ID)
							_ = fabB.RestoreLink(l.ID)
							delete(degraded, l.ID)
						}
					}
					check(step, "restore")
				}
			}
		})
	}
}

func BenchmarkArbitrationPass(b *testing.B) {
	e := simtime.NewEngine(9)
	topo := topology.DGXStyle()
	fab := fabric.New(topo, e, fabric.DefaultConfig())
	a, _ := New(fab, DefaultConfig())
	// 8 tenants with pipes over GPU links.
	for i := 0; i < 8; i++ {
		gpu := topology.CompID([]string{"gpu0", "gpu1", "gpu2", "gpu3", "gpu4", "gpu5", "gpu6", "gpu7"}[i])
		p, err := topo.ShortestPath(gpu, "socket0.dimm0_0")
		if err != nil {
			b.Fatal(err)
		}
		res := resmodel.NewReservation()
		res.AddPipe(p, topology.GBps(2))
		tn := fabric.TenantID(gpu)
		_ = fab.AddFlow(&fabric.Flow{Tenant: tn, Path: p})
		if err := a.Install(tn, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.apply()
	}
}
