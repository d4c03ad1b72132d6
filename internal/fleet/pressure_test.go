package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// referencePressure is the pressure figure as it was computed before
// the arbiter kept it current — rebuild both link maps, then sum —
// kept as the differential oracle for Arbiter.Pressure. The sums run
// in link-ID order (the original walked the capacity map in Go's
// randomized order, which is exactly the bit-instability the stored
// figure removes), so the comparison below demands equal bits.
func referencePressure(h *Host) float64 {
	free := h.Mgr.Arbiter().FreeMap()
	capacity := h.Mgr.Arbiter().CapacityMap()
	var f, c float64
	for _, l := range h.Mgr.Topology().Links() {
		c += float64(capacity[l.ID])
		f += float64(free[l.ID])
	}
	if c == 0 {
		return 0
	}
	return 1 - f/c
}

// referenceOrder is the original placement order: the live hosts by
// name, stable-sorted by recomputed pressure.
func referenceOrder(f *Fleet, sr *ShardedRunner) []*Host {
	var order []*Host
	for _, h := range f.Hosts() {
		if sr.Live(h) {
			order = append(order, h)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return referencePressure(order[i]) < referencePressure(order[j]) })
	return order
}

func hostNames(hs []*Host) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Name
	}
	return out
}

// TestPressureMatchesReference drives a 16-host synthetic fleet
// through seeded random place, evict, migrate, degrade, restore,
// fail, quarantine and advance steps. After every step each host's
// stored pressure must equal the reference recomputation bit for bit;
// at every placement the pressure ordering must equal the reference
// stable sort, and Place must pick the first host in that order that
// admits the tenant (every host it skipped must still reject it).
func TestPressureMatchesReference(t *testing.T) {
	f, err := Synth(SynthSpec{Hosts: 16, Seed: 5, Workload: true})
	if err != nil {
		t.Fatal(err)
	}
	sr := NewShardedRunner(f, ShardConfig{})
	hosts := f.Hosts()
	var links []topology.LinkID
	for _, l := range hosts[0].Mgr.Topology().Links() {
		links = append(links, l.ID)
	}
	srcs := []topology.CompID{"nic0", "nic1", "gpu0", "gpu1", "ssd0", "ssd1"}
	dsts := []topology.CompID{intent.AnyMemory, "memory:socket0", "memory:socket1"}
	rng := rand.New(rand.NewSource(11))
	var placed []fabric.TenantID
	quarantined := ""
	counts := map[string]int{}

	check := func(step int, op string) {
		t.Helper()
		for _, h := range hosts {
			got, want := h.Pressure(), referencePressure(h)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): host %s pressure %v, reference %v", step, op, h.Name, got, want)
			}
		}
	}

	for step := 0; step < 400; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 7:
			op = "place"
			tenant := fabric.TenantID(fmt.Sprintf("t%03d", step))
			targets := []intent.Target{{
				Src: srcs[rng.Intn(len(srcs))], Dst: dsts[rng.Intn(len(dsts))],
				Rate: topology.Rate((0.5 + 9.5*rng.Float64()) * 1e9),
			}}
			order := referenceOrder(f, sr)
			if got, want := hostNames(f.ByPressure(sr.Live)), hostNames(order); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: ByPressure order %v, reference %v", step, got, want)
			}
			_, h, err := f.Place(tenant, targets, sr.Live)
			skipped := order
			if err == nil {
				placed = append(placed, tenant)
				i := 0
				for i < len(order) && order[i] != h {
					i++
				}
				if i == len(order) {
					t.Fatalf("step %d: placed on %s, not a live host", step, h.Name)
				}
				skipped = order[:i]
			}
			for _, s := range skipped {
				if _, err := s.Sess.Admit(string(tenant), targets); err == nil {
					t.Fatalf("step %d: Place skipped %s, which admits %s", step, s.Name, tenant)
				}
			}
		case r < 10:
			op = "evict"
			if len(placed) > 0 {
				i := rng.Intn(len(placed))
				if _, err := f.Evict(placed[i]); err != nil {
					t.Fatalf("step %d: evict %s: %v", step, placed[i], err)
				}
				placed = append(placed[:i], placed[i+1:]...)
			}
		case r < 12:
			op = "migrate"
			if len(placed) > 0 {
				tenant := placed[rng.Intn(len(placed))]
				dst := hosts[rng.Intn(len(hosts))].Name
				_, _ = f.Migrate(tenant, dst) // a full or same destination is a no-op
			}
		case r < 14:
			op = "degrade"
			h := hosts[rng.Intn(len(hosts))]
			link := links[rng.Intn(len(links))]
			if err := h.Sess.DegradeLink(string(link), 0.1+0.8*rng.Float64(), simtime.Microsecond); err != nil {
				t.Fatal(err)
			}
		case r < 16:
			op = "restore"
			h := hosts[rng.Intn(len(hosts))]
			if bad := h.Mgr.Fabric().UnhealthyLinks(); len(bad) > 0 {
				if err := h.Sess.RestoreLink(string(bad[rng.Intn(len(bad))])); err != nil {
					t.Fatal(err)
				}
			}
		case r < 17:
			op = "fail"
			h := hosts[rng.Intn(len(hosts))]
			if err := h.Sess.FailLink(string(links[rng.Intn(len(links))])); err != nil {
				t.Fatal(err)
			}
		case r < 18:
			op = "quarantine"
			if quarantined == "" {
				quarantined = hosts[rng.Intn(len(hosts))].Name
				if err := sr.Quarantine(quarantined, nil); err != nil {
					t.Fatal(err)
				}
			} else {
				sr.Unquarantine(quarantined)
				quarantined = ""
			}
		default:
			op = "advance"
			runFor(t, sr, 250*simtime.Microsecond)
		}
		counts[op]++
		check(step, op)
	}
	for _, op := range []string{"place", "evict", "migrate", "degrade", "restore", "fail", "quarantine", "advance"} {
		if counts[op] == 0 {
			t.Errorf("schedule never exercised %s: %v", op, counts)
		}
	}
}

// TestPressureStableOnUnchangedHost: repeated reads of an unchanged
// host's pressure return one value. Summing over Go map order, as the
// figure once was, returned several values differing in the last bits
// on exactly this host (8 degraded links, 12 tenants), which made the
// placement sort's comparator inconsistent.
func TestPressureStableOnUnchangedHost(t *testing.T) {
	f, err := Synth(SynthSpec{Hosts: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Hosts()[0]
	rng := rand.New(rand.NewSource(3))
	links := h.Mgr.Topology().Links()
	for _, i := range rng.Perm(len(links))[:8] {
		if err := h.Sess.DegradeLink(string(links[i].ID), 0.05+0.5*rng.Float64(), simtime.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []topology.CompID{"nic0", "nic1", "gpu0", "gpu1", "ssd0", "ssd1"}
	admitted := 0
	for i := 0; admitted < 12 && i < 100; i++ {
		if _, err := h.Sess.Admit(fmt.Sprintf("t%02d", i), []intent.Target{{
			Src: srcs[rng.Intn(len(srcs))], Dst: intent.AnyMemory,
			Rate: topology.Rate((0.3 + 2.7*rng.Float64()) * 1e9),
		}}); err == nil {
			admitted++
		}
	}
	if admitted != 12 {
		t.Fatalf("admitted %d tenants, want 12", admitted)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[math.Float64bits(h.Pressure())] = true
	}
	if len(seen) != 1 {
		t.Fatalf("5000 reads of an unchanged host returned %d distinct pressures", len(seen))
	}
}

// TestPlaceSkipsQuarantinedHost: automatic placement never picks a
// quarantined host — its clock is frozen, so a tenant placed there
// would never run. The least-pressured host here is the quarantined
// one; the tenant must land on the other, and advance with the fleet.
func TestPlaceSkipsQuarantinedHost(t *testing.T) {
	f, err := Synth(SynthSpec{Hosts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sr := NewShardedRunner(f, ShardConfig{})
	targets := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(4)}}
	if _, h, err := f.Place("a", targets, sr.Live); err != nil || h.Name != "synth-00000" {
		t.Fatalf("place a: host %v, err %v", h, err)
	}
	if err := sr.Quarantine("synth-00001", nil); err != nil {
		t.Fatal(err)
	}
	_, h, err := f.Place("b", targets, sr.Live)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "synth-00000" {
		t.Fatalf("b placed on %s, a quarantined host", h.Name)
	}
	runFor(t, sr, simtime.Millisecond)
	if got, want := h.Mgr.Engine().Now(), sr.Now(); got != want {
		t.Fatalf("b's host is at %v, the fleet at %v", got, want)
	}
	// With every host quarantined there is nowhere to place.
	if err := sr.Quarantine("synth-00000", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Place("c", targets, sr.Live); err == nil {
		t.Fatal("placement with every host quarantined accepted")
	}
}
