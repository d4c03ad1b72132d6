package fleet

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// newFleet builds n idle recording hosts named a, b, ... (host i
// seeded i+1).
func newFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	f := New()
	for i := 0; i < n; i++ {
		opts := core.DefaultOptions()
		opts.Seed = int64(i + 1)
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddSession(string(rune('a'+i)), sess); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// runFor advances every host of the runner's fleet by d.
func runFor(t *testing.T, sr *ShardedRunner, d simtime.Duration) {
	t.Helper()
	if _, err := sr.RunFor(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

func TestAddSessionValidation(t *testing.T) {
	f := New()
	if _, err := f.AddSession("x", nil); err == nil {
		t.Fatal("nil session accepted")
	}
	sess, err := snap.NewSession(snap.Config{Preset: "minimal", Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddSession("", sess); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := f.AddSession("x", sess); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddSession("x", sess); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if f.Host("x") == nil || f.Host("y") != nil {
		t.Fatal("Host lookup wrong")
	}
}

func TestPlaceLeastPressure(t *testing.T) {
	f := newFleet(t, 2)
	targets := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(8)}}
	// First placement goes somewhere; pressure that host, then the
	// second distinct tenant should land on the other.
	_, h1, err := f.Place("t1", targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := f.Place("t2", targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Name == h2.Name {
		t.Fatalf("both tenants on %s despite equal alternatives", h1.Name)
	}
	if f.Locate("t1") == nil || f.Locate("t2") == nil {
		t.Fatal("Locate failed")
	}
	if f.Locate("ghost") != nil {
		t.Fatal("Locate found ghost")
	}
}

func TestPlaceFailsWhenFull(t *testing.T) {
	f := newFleet(t, 2)
	big := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(25)}}
	if _, _, err := f.Place("t1", big, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Place("t2", big, nil); err != nil {
		t.Fatal(err)
	}
	// Both hosts' nic0 uplinks are now fully reserved.
	if _, _, err := f.Place("t3", big, nil); err == nil {
		t.Fatal("overcommit accepted")
	}
}

func TestPressureGrowsWithReservations(t *testing.T) {
	f := newFleet(t, 1)
	h := f.Hosts()[0]
	before := h.Pressure()
	if _, err := h.Sess.Admit("t", []intent.Target{
		{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(20)},
	}); err != nil {
		t.Fatal(err)
	}
	if h.Pressure() <= before {
		t.Fatalf("pressure %v not above %v after reservation", h.Pressure(), before)
	}
}

func TestRebalanceMovesOnlyAffectedTenants(t *testing.T) {
	f := newFleet(t, 2)
	hostA := f.Host("a")
	// victim's pathway crosses pcieswitch0; bystander lives on the
	// other socket's fabric entirely.
	if _, err := hostA.Sess.Admit("victim", []intent.Target{
		{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(5)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := hostA.Sess.Admit("bystander", []intent.Target{
		{Src: "gpu1", Dst: "memory:socket1", Rate: topology.GBps(5)},
	}); err != nil {
		t.Fatal(err)
	}
	// Calibrate heartbeats, then silently degrade the victim's switch
	// link on host a.
	sr := NewShardedRunner(f, ShardConfig{})
	runFor(t, sr, 2*simtime.Millisecond)
	if err := hostA.Sess.DegradeLink("pcieswitch0->nic0", 0.2, 10*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	runFor(t, sr, 2*simtime.Millisecond)
	if len(hostA.Mgr.Anomaly().Detections()) == 0 {
		t.Fatal("degradation not detected; rebalance has nothing to act on")
	}
	affected := AffectedTenants(hostA)
	if len(affected) != 1 || affected[0] != "victim" {
		t.Fatalf("affected = %v, want [victim]", affected)
	}
	rep := f.Rebalance(nil)
	if dst, ok := rep.Moved["victim"]; !ok || dst != "b" {
		t.Fatalf("rebalance moved %v", rep.Moved)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed: %v", rep.Failed)
	}
	if f.Locate("victim").Name != "b" {
		t.Fatal("victim not on host b")
	}
	if f.Locate("bystander").Name != "a" {
		t.Fatal("bystander was moved")
	}
}

func TestRebalanceReportsUnplaceable(t *testing.T) {
	f := newFleet(t, 2)
	hostA, hostB := f.Host("a"), f.Host("b")
	// Fill host b's nic0 path so it cannot take the victim.
	if _, err := hostB.Sess.Admit("hog", []intent.Target{
		{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(25)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := hostA.Sess.Admit("victim", []intent.Target{
		{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(20)},
	}); err != nil {
		t.Fatal(err)
	}
	sr := NewShardedRunner(f, ShardConfig{})
	runFor(t, sr, 2*simtime.Millisecond)
	if err := hostA.Sess.DegradeLink("pcieswitch0->nic0", 0.2, 10*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	runFor(t, sr, 2*simtime.Millisecond)
	rep := f.Rebalance(nil)
	if len(rep.Failed) != 1 || rep.Failed[0] != "victim" {
		t.Fatalf("report: %+v", rep)
	}
	if f.Locate("victim").Name != "a" {
		t.Fatal("unplaceable tenant was evicted anyway")
	}
}

func TestPlaceNoHosts(t *testing.T) {
	if _, _, err := New().Place("t", nil, nil); err == nil {
		t.Fatal("placement on empty fleet accepted")
	}
}
