package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// buildFleet constructs n identical recording hosts (host i seeded
// i+1) with a few admitted tenants and one degraded link, so the
// simulations have real work to do.
func buildFleet(t *testing.T, n int) *Fleet {
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
	for i, h := range f.Hosts() {
		if _, err := h.admit("kv", []intent.Target{
			{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(8)},
		}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := h.Mgr.Fabric().DegradeLink("pcieswitch0->nic0", 0.1, simtime.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func hashes(f *Fleet) map[string]string {
	out := make(map[string]string)
	for _, h := range f.Hosts() {
		out[h.Name] = snap.StateHash(h.Mgr)
	}
	return out
}

// TestRunnerMatchesSerial is the core determinism claim: advancing the
// fleet on many workers produces bit-identical per-host state to the
// one-worker serial loop.
func TestRunnerMatchesSerial(t *testing.T) {
	serial := buildFleet(t, 4)
	parallel := buildFleet(t, 4)
	if _, err := newRunner(serial, runnerConfig{Workers: 1}).RunFor(context.Background(), 5*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := newRunner(parallel, runnerConfig{Workers: 8}).RunFor(context.Background(), 5*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	want, got := hashes(serial), hashes(parallel)
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("host %s diverged under parallel execution:\n serial   %s\n parallel %s", name, h, got[name])
		}
	}
}

// TestRunnerDeterminismGate replays a fleet host's journal twice on
// fresh hosts (the internal/snap determinism gate) after a parallel
// run: parallelism must not leak into any host's recorded history.
func TestRunnerDeterminismGate(t *testing.T) {
	f := buildFleet(t, 3)
	r := newRunner(f, runnerConfig{Workers: 4, Epoch: 500 * simtime.Microsecond})
	if _, err := r.RunFor(context.Background(), 3*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A fleet-level control action between runs lands in the journals
	// too (Place journals through the chosen host's session).
	if _, _, err := f.Place("late", []intent.Target{
		{Src: "gpu0", Dst: intent.AnyMemory, Rate: topology.GBps(4)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, h := range f.Hosts() {
		div, err := snap.CheckDeterminism(h.Sess.Config(), h.Sess.Journal())
		if err != nil {
			t.Fatalf("host %s: %v", h.Name, err)
		}
		if div != nil {
			t.Fatalf("host %s journal is nondeterministic: %v", h.Name, div)
		}
	}
}

// TestRunnerEpochBarrier: after every epoch all live hosts sit at the
// same virtual time, even when they started skewed.
func TestRunnerEpochBarrier(t *testing.T) {
	f := buildFleet(t, 3)
	// Skew host a half an epoch ahead.
	if err := f.Host("a").advanceTo(simtime.Time(500 * simtime.Microsecond)); err != nil {
		t.Fatal(err)
	}
	var barriers []EpochStat
	r := newRunner(f, runnerConfig{
		Workers: 4,
		Epoch:   simtime.Millisecond,
		OnEpoch: func(st EpochStat) { barriers = append(barriers, st) },
	})
	if _, err := r.RunFor(context.Background(), 2500*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(barriers) != 3 {
		t.Fatalf("epochs = %d, want 3", len(barriers))
	}
	for _, st := range barriers {
		if len(st.Results) != 3 {
			t.Fatalf("epoch %d has %d results", st.Index, len(st.Results))
		}
		for i, res := range st.Results {
			if res.Now != st.Target {
				t.Fatalf("epoch %d host %s at %v, barrier %v", st.Index, res.Host, res.Now, st.Target)
			}
			if i > 0 && st.Results[i-1].Host >= res.Host {
				t.Fatalf("epoch %d results not name-ordered: %q before %q",
					st.Index, st.Results[i-1].Host, res.Host)
			}
		}
	}
	if now := r.Now(); now != simtime.Time(500*simtime.Microsecond)+simtime.Time(2500*simtime.Microsecond) {
		t.Fatalf("fleet time %v after skewed run", now)
	}
}

// TestRunnerIsolatesHostFailure: a host that panics mid-epoch is
// quarantined; its siblings advance to the target with bit-identical
// state to a run where the bad host never existed.
func TestRunnerIsolatesHostFailure(t *testing.T) {
	f := buildFleet(t, 3)
	bad := f.Host("b")
	bad.Mgr.Engine().After(700*simtime.Microsecond, func() {
		panic("injected fault")
	})
	r := newRunner(f, runnerConfig{Workers: 4})
	rep, err := r.RunFor(context.Background(), 4*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed["b"] == nil {
		t.Fatalf("failed = %v, want host b quarantined", rep.Failed)
	}
	// Siblings reached the target...
	for _, name := range []string{"a", "c"} {
		if now := f.Host(name).Mgr.Engine().Now(); now != simtime.Time(4*simtime.Millisecond) {
			t.Fatalf("host %s at %v, want 4ms", name, now)
		}
	}
	// ...with exactly the state a failure-free run gives them.
	control := buildFleet(t, 3)
	if _, err := newRunner(control, runnerConfig{Workers: 1}).RunFor(context.Background(), 4*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "c"} {
		if got, want := snap.StateHash(f.Host(name).Mgr), snap.StateHash(control.Host(name).Mgr); got != want {
			t.Fatalf("sibling %s corrupted by host b's failure", name)
		}
	}
	// The quarantined host stays parked on subsequent runs.
	frozen := bad.Mgr.Engine().Now()
	if _, err := r.RunFor(context.Background(), simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if now := bad.Mgr.Engine().Now(); now != frozen {
		t.Fatalf("quarantined host advanced from %v to %v", frozen, now)
	}
}

// TestRunnerCancel: cancellation stops the run at an epoch barrier —
// never mid-epoch — and reports the abort.
func TestRunnerCancel(t *testing.T) {
	f := buildFleet(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	r := newRunner(f, runnerConfig{
		Workers: 2,
		Epoch:   simtime.Millisecond,
		OnEpoch: func(st EpochStat) {
			if st.Index == 1 {
				cancel()
			}
		},
	})
	rep, err := r.RunFor(ctx, 10*simtime.Millisecond)
	if err == nil || !rep.Aborted {
		t.Fatalf("canceled run: err=%v aborted=%v", err, rep.Aborted)
	}
	if rep.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2 (abort after second barrier)", rep.Epochs)
	}
	for _, h := range f.Hosts() {
		if now := h.Mgr.Engine().Now(); now != simtime.Time(2*simtime.Millisecond) {
			t.Fatalf("host %s at %v, want the 2ms barrier", h.Name, now)
		}
	}
}

func TestRunnerRejectsBadDuration(t *testing.T) {
	f := buildFleet(t, 1)
	if _, err := newRunner(f, runnerConfig{}).RunFor(context.Background(), 0); err == nil {
		t.Fatal("zero-duration run accepted")
	}
}

// TestLoadDir boots a fleet from a directory of host-spec documents
// and checks naming, seeding and per-host journaling.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"rack1-box1", "rack1-box2"} {
		data, err := json.Marshal(topology.TwoSocketServer())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultOptions()
	opts.Seed = 7
	f, err := LoadDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	hosts := f.Hosts()
	if len(hosts) != 2 || hosts[0].Name != "rack1-box1" || hosts[1].Name != "rack1-box2" {
		t.Fatalf("hosts: %+v", hosts)
	}
	for i, h := range hosts {
		if h.Sess == nil {
			t.Fatalf("host %s not recording", h.Name)
		}
		if got := h.Mgr.Options().Seed; got != 7+int64(i) {
			t.Fatalf("host %s seed %d, want %d", h.Name, got, 7+int64(i))
		}
	}
	if _, err := LoadDir(t.TempDir(), opts); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestQuarantineExcludesAndReadmits covers the operator-initiated
// quarantine API: a quarantined host is frozen out of epochs, an
// unquarantined one rejoins and catches up to the fleet barrier.
func TestQuarantineExcludesAndReadmits(t *testing.T) {
	f := buildFleet(t, 3)
	r := newRunner(f, runnerConfig{Workers: 2, Epoch: 200 * simtime.Microsecond})

	if err := r.Quarantine("nope", nil); err == nil {
		t.Fatal("unknown host quarantined")
	}
	if err := r.Quarantine("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Quarantine("b", nil); err == nil {
		t.Fatal("double quarantine accepted")
	}
	if _, ok := r.Failed()["b"]; !ok {
		t.Fatal("quarantined host missing from Failed()")
	}

	frozen := f.Host("b").Mgr.Engine().Now()
	if _, err := r.RunFor(context.Background(), simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.Host("b").Mgr.Engine().Now(); got != frozen {
		t.Fatalf("quarantined host advanced: %v -> %v", frozen, got)
	}
	if f.Host("a").Mgr.Engine().Now() == frozen {
		t.Fatal("live hosts did not advance")
	}

	if !r.Unquarantine("b") {
		t.Fatal("unquarantine reported missing host")
	}
	if r.Unquarantine("b") {
		t.Fatal("double unquarantine reported success")
	}
	if _, err := r.RunFor(context.Background(), simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	// One barrier later every live host, b included, is realigned.
	now := r.Now()
	for _, h := range f.Hosts() {
		if got := h.Mgr.Engine().Now(); got != now {
			t.Fatalf("host %s at %v, fleet at %v after readmission", h.Name, got, now)
		}
	}
	if len(r.Failed()) != 0 {
		t.Fatalf("Failed() = %v, want empty", r.Failed())
	}
}
