package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// deterministicSnapshot drops the wall-clock-derived families from any
// roll-up snapshot — the sharded counterpart of deterministicRollup.
func deterministicSnapshot(s obs.Snapshot) []byte {
	filtered := s.Filter(func(name string) bool {
		return !strings.HasSuffix(name, "_seconds") &&
			!strings.HasSuffix(name, "_duration_ns") &&
			!strings.HasSuffix(name, "_latency_us")
	})
	buf, err := json.Marshal(filtered)
	if err != nil {
		panic(err)
	}
	return buf
}

// TestShardedMatchesUnsharded: the sharded engine must be an
// implementation detail — same per-host state hashes and same
// (wall-clock-filtered) roll-up bytes as the single-barrier runner
// over the same fleet history.
func TestShardedMatchesUnsharded(t *testing.T) {
	plain := buildFleet(t, 6)
	r := newRunner(plain, runnerConfig{Workers: 4, Epoch: 500 * simtime.Microsecond})
	if _, err := r.RunFor(context.Background(), 4*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}

	sharded := buildFleet(t, 6)
	sr := NewShardedRunner(sharded, ShardConfig{
		Shards: 3, Workers: 2,
		Epoch: 500 * simtime.Microsecond, OuterEvery: 2,
	})
	rep, err := sr.RunFor(context.Background(), 4*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OuterEpochs != 4 || rep.Epochs != 8 || rep.HostsAdvanced != 6*8 {
		t.Fatalf("sharded report %+v, want 4 outer / 8 inner epochs, 48 host-advances", rep)
	}

	want, got := hashes(plain), hashes(sharded)
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("host %s diverged under sharding:\n plain   %s\n sharded %s", name, h, got[name])
		}
	}
	if a, b := deterministicRollup(r), deterministicSnapshot(sr.Rollup()); !bytes.Equal(a, b) {
		t.Fatalf("roll-up bytes differ between plain and sharded engines:\n%s\n%s", a, b)
	}
}

// TestShardedRollupDeterministicAcrossShardsAndWorkers extends the
// PR 6 across-workers merge proof to the sharded engine: roll-up
// bytes and per-host replay hashes must be byte-identical across
// (shards x workers) in {1,4,16} x {1,8}.
func TestShardedRollupDeterministicAcrossShardsAndWorkers(t *testing.T) {
	var wantRoll []byte
	var wantHashes map[string]string
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 8} {
			f := buildFleet(t, 16)
			sr := NewShardedRunner(f, ShardConfig{
				Shards: shards, Workers: workers,
				Epoch: 500 * simtime.Microsecond, OuterEvery: 2,
			})
			if _, err := sr.RunFor(context.Background(), 4*simtime.Millisecond); err != nil {
				t.Fatal(err)
			}
			roll := deterministicSnapshot(sr.Rollup())
			hs := hashes(f)
			if wantRoll == nil {
				wantRoll, wantHashes = roll, hs
				continue
			}
			if !bytes.Equal(roll, wantRoll) {
				t.Fatalf("shards=%d workers=%d: roll-up bytes diverge:\n%s\n%s",
					shards, workers, wantRoll, roll)
			}
			for name, h := range wantHashes {
				if hs[name] != h {
					t.Fatalf("shards=%d workers=%d: host %s replay hash diverged", shards, workers, name)
				}
			}
		}
	}
}

// TestShardedJournalsReplayable: per-shard execution still journals
// through each host's session, and every journal passes the twice-
// replay determinism gate.
func TestShardedJournalsReplayable(t *testing.T) {
	f := buildFleet(t, 4)
	sr := NewShardedRunner(f, ShardConfig{
		Shards: 2, Workers: 2,
		Epoch: 500 * simtime.Microsecond, OuterEvery: 2,
	})
	if _, err := sr.RunFor(context.Background(), 3*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, h := range f.Hosts() {
		div, err := snap.CheckDeterminism(h.Sess.Config(), h.Sess.Journal())
		if err != nil {
			t.Fatalf("host %s: %v", h.Name, err)
		}
		if div != nil {
			t.Fatalf("host %s journal is nondeterministic under sharding: %v", h.Name, div)
		}
	}
}

// TestShardedQuarantineIsolation: a host panicking mid-inner-epoch is
// quarantined within its shard; its shard sibling and all other
// shards keep advancing, and the fleet roll-up stays deterministic
// across worker counts with the failure in place.
func TestShardedQuarantineIsolation(t *testing.T) {
	build := func(workers int) (*Fleet, *ShardedRunner) {
		f := buildFleet(t, 8)
		// Host c (shard 1 of {a,b},{c,d},{e,f},{g,h}) detonates at
		// 700us, mid first inner epoch.
		f.Host("c").Mgr.Engine().After(700*simtime.Microsecond, func() { panic("injected fault") })
		sr := NewShardedRunner(f, ShardConfig{
			Shards: 4, Workers: workers,
			Epoch: 500 * simtime.Microsecond, OuterEvery: 2,
		})
		return f, sr
	}

	f, sr := build(2)
	rep, err := sr.RunFor(context.Background(), 4*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed["c"] == nil {
		t.Fatalf("failed set %v, want exactly host c", rep.Failed)
	}
	end := simtime.Time(4 * simtime.Millisecond)
	for _, h := range f.Hosts() {
		now := h.Mgr.Engine().Now()
		if h.Name == "c" {
			if now >= end {
				t.Fatalf("quarantined host c reached %v; its clock should be frozen mid-epoch", now)
			}
			continue
		}
		if now != end {
			t.Fatalf("live host %s at %v, want %v", h.Name, now, end)
		}
	}
	st := sr.Stats()
	if st.Shards[1].Quarantined != 1 {
		t.Fatalf("shard 1 quarantined=%d, want 1: %+v", st.Shards[1].Quarantined, st.Shards)
	}
	for i, sh := range st.Shards {
		if sh.HostsAdvanced == 0 {
			t.Fatalf("shard %d never advanced a host: %+v", i, sh)
		}
	}

	// Same fault, different worker count: identical roll-up bytes and
	// state hashes, including the frozen host's partial state.
	f2, sr2 := build(1)
	if _, err := sr2.RunFor(context.Background(), 4*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if a, b := deterministicSnapshot(sr.Rollup()), deterministicSnapshot(sr2.Rollup()); !bytes.Equal(a, b) {
		t.Fatalf("roll-up bytes diverge across worker counts with a quarantined host:\n%s\n%s", a, b)
	}
	want, got := hashes(f), hashes(f2)
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("host %s state hash diverged across worker counts", name)
		}
	}
}

// TestShardedQuarantineDelegation: operator quarantine routes to the
// owning shard, unknown hosts error, and a readmitted host catches up
// to the fleet at its next barrier.
func TestShardedQuarantineDelegation(t *testing.T) {
	f := buildFleet(t, 4)
	sr := NewShardedRunner(f, ShardConfig{Shards: 2, Workers: 2, Epoch: 500 * simtime.Microsecond})
	if err := sr.Quarantine("nope", nil); err == nil {
		t.Fatal("quarantining an unknown host succeeded")
	}
	if err := sr.Quarantine("b", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.Host("b").Mgr.Engine().Now() != 0 {
		t.Fatal("quarantined host advanced")
	}
	if !sr.Unquarantine("b") || sr.Unquarantine("b") {
		t.Fatal("unquarantine should succeed exactly once")
	}
	if _, err := sr.RunFor(context.Background(), simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := simtime.Time(3 * simtime.Millisecond)
	if now := f.Host("b").Mgr.Engine().Now(); now != want {
		t.Fatalf("readmitted host at %v, want %v", now, want)
	}
}

// TestShardedRollupCache: scrapes between advances are pure cache
// hits returning the same merged snapshot; advancing or marking a
// host dirty refolds exactly the owning shard.
func TestShardedRollupCache(t *testing.T) {
	f := buildFleet(t, 8)
	sr := NewShardedRunner(f, ShardConfig{Shards: 4, Workers: 2, Epoch: 500 * simtime.Microsecond})
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}

	r1 := sr.Rollup() // first scrape: all shards dirty
	st := sr.Stats()
	if st.RollupCacheMisses != 4 || st.RollupCacheHits != 0 {
		t.Fatalf("after first scrape: hits=%d misses=%d, want 0/4", st.RollupCacheHits, st.RollupCacheMisses)
	}
	r2 := sr.Rollup() // pure cache hit
	st = sr.Stats()
	if st.RollupCacheHits != 4 || st.RollupCacheMisses != 4 {
		t.Fatalf("after cached scrape: hits=%d misses=%d, want 4/4", st.RollupCacheHits, st.RollupCacheMisses)
	}
	if a, b := deterministicSnapshot(r1), deterministicSnapshot(r2); !bytes.Equal(a, b) {
		t.Fatal("cached scrape returned different bytes")
	}

	// The cached fold must equal a from-scratch unsharded fold.
	fresh := newRunner(f, runnerConfig{Workers: 1})
	if a, b := deterministicSnapshot(fresh.Rollup()), deterministicSnapshot(r2); !bytes.Equal(a, b) {
		t.Fatalf("cached sharded roll-up diverges from direct fold:\n%s\n%s", a, b)
	}

	if sr.MarkDirty("ghost") {
		t.Fatal("marking an unknown host dirty succeeded")
	}
	if !sr.MarkDirty("a") {
		t.Fatal("marking host a dirty failed")
	}
	sr.Rollup()
	st = sr.Stats()
	if st.RollupCacheMisses != 5 || st.RollupCacheHits != 7 {
		t.Fatalf("after dirty-one scrape: hits=%d misses=%d, want 7/5", st.RollupCacheHits, st.RollupCacheMisses)
	}
	if st.Shards[0].RollupRefolds != 2 {
		t.Fatalf("shard 0 refolds=%d, want 2", st.Shards[0].RollupRefolds)
	}

	// Advancing dirties every shard that moved hosts.
	if _, err := sr.RunFor(context.Background(), simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	sr.Rollup()
	st = sr.Stats()
	if st.RollupCacheMisses != 9 {
		t.Fatalf("advance did not dirty all shards: misses=%d, want 9", st.RollupCacheMisses)
	}

	sr.MarkAllDirty()
	sr.Rollup()
	st = sr.Stats()
	if st.RollupCacheMisses != 13 {
		t.Fatalf("MarkAllDirty did not dirty all shards: misses=%d, want 13", st.RollupCacheMisses)
	}
}

// TestSynthDeterministic: equal specs produce byte-identical fleets
// of recording hosts; the workload knob does what it says.
func TestSynthDeterministic(t *testing.T) {
	if _, err := Synth(SynthSpec{Hosts: 0}); err == nil {
		t.Fatal("zero-host synth succeeded")
	}
	if _, err := Synth(SynthSpec{Hosts: 1, Preset: "warp-core"}); err == nil {
		t.Fatal("unknown preset succeeded")
	}

	spec := SynthSpec{Hosts: 4, Seed: 7, Workload: true}
	a, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	ah, bh := hashes(a), hashes(b)
	if len(ah) != 4 {
		t.Fatalf("synth built %d hosts, want 4", len(ah))
	}
	for name, h := range ah {
		if !strings.HasPrefix(name, "synth-") {
			t.Fatalf("unexpected host name %q", name)
		}
		if bh[name] != h {
			t.Fatalf("host %s differs between equal synth specs", name)
		}
	}
	for _, h := range a.Hosts() {
		if h.Sess == nil {
			t.Fatalf("synth left host %s without a session", h.Name)
		}
		if h.Mgr.Tenant("kv") == nil {
			t.Fatalf("workload spec left host %s without the kv tenant", h.Name)
		}
	}

	// Advancing sharded must keep synthetic hosts deterministic too.
	sr := NewShardedRunner(a, ShardConfig{Shards: 2, Workers: 2})
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	sr2 := NewShardedRunner(b, ShardConfig{Shards: 4, Workers: 1})
	if _, err := sr2.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	ah, bh = hashes(a), hashes(b)
	for name, h := range ah {
		if bh[name] != h {
			t.Fatalf("synth host %s diverged across shard configs", name)
		}
	}
}

// TestFleetSmokeSharded1k is the make fleet-smoke gate: a sharded
// 1024-host advance plus the roll-up determinism comparison across
// two shard/worker configurations. Heavy, so it only runs when
// IHNET_FLEET_SMOKE=1.
func TestFleetSmokeSharded1k(t *testing.T) {
	if os.Getenv("IHNET_FLEET_SMOKE") != "1" {
		t.Skip("set IHNET_FLEET_SMOKE=1 to run the 1k-host smoke")
	}
	const n = 1024
	run := func(shards, workers int) (*Fleet, []byte) {
		f, err := Synth(SynthSpec{Hosts: n, Seed: 1, Workload: true})
		if err != nil {
			t.Fatal(err)
		}
		sr := NewShardedRunner(f, ShardConfig{Shards: shards, Workers: workers})
		rep, err := sr.RunFor(context.Background(), 2*simtime.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if rep.HostsAdvanced != n*rep.Epochs {
			t.Fatalf("advanced %d host-epochs, want %d", rep.HostsAdvanced, n*rep.Epochs)
		}
		roll := sr.Rollup()
		if roll.Hosts != n {
			t.Fatalf("roll-up covers %d hosts, want %d", roll.Hosts, n)
		}
		return f, deterministicSnapshot(roll)
	}
	fa, ra := run(0, 0) // auto sharding
	fb, rb := run(4, 8)
	if !bytes.Equal(ra, rb) {
		t.Fatal("1k-host roll-up bytes differ across shard configs")
	}
	ah, bh := hashes(fa), hashes(fb)
	for i := 0; i < n; i += 101 { // spot-check state hashes
		name := fmt.Sprintf("synth-%05d", i)
		if ah[name] == "" || ah[name] != bh[name] {
			t.Fatalf("host %s state hash diverged across shard configs", name)
		}
	}
}
