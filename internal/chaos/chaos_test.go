package chaos

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/simtime"
	"repro/internal/snap"
)

// shortCfg is the unit-test scale: the minimal preset with enough
// events to hit every op family. CI's chaos-smoke and the fuzz CLI
// run the full-scale sweeps.
func shortCfg(seed int64) Config {
	return Config{
		Seed:     seed,
		Events:   120,
		Duration: 6 * simtime.Millisecond,
		Preset:   "minimal",
	}
}

func journalJSON(t *testing.T, j snap.Journal) string {
	t.Helper()
	data, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshal journal: %v", err)
	}
	return string(data)
}

func TestFuzzSeedsClean(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		res, err := Run(shortCfg(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: %v", seed, res.Violation)
		}
		if res.Events != 120 {
			t.Fatalf("seed %d: injected %d/120 events (rejected %d)", seed, res.Events, res.Rejected)
		}
		if res.SnapshotChecks == 0 {
			t.Fatalf("seed %d: snapshot invariant never exercised", seed)
		}
		if len(res.Counts) < 5 {
			t.Fatalf("seed %d: only %d op families fired: %v", seed, len(res.Counts), res.Counts)
		}
	}
}

func TestFuzzDeterministicJournal(t *testing.T) {
	a, err := Run(shortCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := journalJSON(t, a.Journal), journalJSON(t, b.Journal); ja != jb {
		t.Fatalf("same seed produced different journals:\n%s\nvs\n%s", ja, jb)
	}
	if a.FinalTime != b.FinalTime {
		t.Fatalf("same seed ended at different times: %v vs %v", a.FinalTime, b.FinalTime)
	}
}

// TestChaosJournalCheckDeterminism sweeps chaos journals through the
// snap determinism checker: replaying twice must agree hash-for-hash,
// covering monitor, anomaly, telemetry and vnet state under fault
// churn. Seed 3 is pinned as the regression fixture for the FreeMap
// map-iteration nondeterminism (arbiter.FreeMap now iterates
// guarantees in sorted order; with the old map-order iteration this
// sweep diverges).
func TestChaosJournalCheckDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		res, err := Run(shortCfg(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: %v", seed, res.Violation)
		}
		div, err := snap.CheckDeterminism(res.Config, res.Journal)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d: chaos journal replays nondeterministically: %v", seed, div)
		}
	}
}

// TestViolationReproAndMinimize forces a violation with a draconian
// oracle (negative byte slack makes every link "violate" immediately)
// and drives the full repro pipeline: the journal re-derives the same
// invariant, the minimizer shrinks it without losing it, and the
// artifact round-trips through disk.
func TestViolationReproAndMinimize(t *testing.T) {
	ocfg := DefaultOracleConfig()
	ocfg.BytesAbsSlack = -1
	ocfg.BytesRelSlack = -1
	cfg := shortCfg(5)
	cfg.Oracle = ocfg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("draconian oracle found no violation")
	}
	if res.Violation.Invariant != "byte-conservation" {
		t.Fatalf("unexpected invariant %q", res.Violation.Invariant)
	}

	v2, err := CheckJournal(res.Config, res.Journal, res.Checks, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if v2 == nil || v2.Invariant != res.Violation.Invariant {
		t.Fatalf("journal replay did not reproduce the violation: %v", v2)
	}

	min, mv, err := Minimize(res.Config, res.Journal, ocfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	if mv == nil || mv.Invariant != res.Violation.Invariant {
		t.Fatalf("minimization lost the violation: %v", mv)
	}
	if min.Len() > res.Journal.Len() {
		t.Fatalf("minimized journal grew: %d > %d", min.Len(), res.Journal.Len())
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	art := NewArtifact(res, cfg)
	if err := WriteArtifact(path, art); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := back.Recheck()
	if err != nil {
		t.Fatal(err)
	}
	if rv == nil || rv.Invariant != res.Violation.Invariant {
		t.Fatalf("artifact recheck did not reproduce the violation: %v", rv)
	}
}

// TestControllerArtifactReproduces writes the artifact of a failing
// fleet run with the remediation controller armed and re-checks it
// from disk into the same violation. The run is the one behind
// `ihdiag fuzz -vs-controller -fleet 3 -seed 9 -events 150 -dur 10ms
// -preset minimal`; its violation needs the live run's check schedule,
// since checking after every entry resets the work-conservation streak.
func TestControllerArtifactReproduces(t *testing.T) {
	cfg := Config{Seed: 9, Events: 150, Duration: 10 * simtime.Millisecond, Preset: "minimal",
		Hosts: 3, VsController: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("the controller run no longer violates: point this test at one that does")
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteArtifact(path, NewArtifact(res, cfg)); err != nil {
		t.Fatal(err)
	}
	art, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !art.VsController || art.RemedyDeadline != 2*simtime.Millisecond || art.RemedyPolicy == nil || len(art.Checks) == 0 {
		t.Fatalf("artifact lacks the controller run's shape: vs=%v deadline=%v policy=%v checks=%d",
			art.VsController, art.RemedyDeadline, art.RemedyPolicy != nil, len(art.Checks))
	}
	v, err := art.Recheck()
	if err != nil {
		t.Fatal(err)
	}
	want := *res.Violation
	if v == nil || v.Invariant != want.Invariant || v.Subject != want.Subject || v.At != want.At || v.Seq != want.Seq {
		t.Fatalf("recheck gave %v, want %v", v, &want)
	}
}

func TestFleetChaosRuns(t *testing.T) {
	cfg := Config{
		Seed:   9,
		Events: 60,
		Preset: "minimal",
		Hosts:  3,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violation != nil {
		t.Fatalf("fleet chaos violation: %v", a.Violation)
	}
	if a.Events != 60 {
		t.Fatalf("injected %d/60 events (rejected %d)", a.Events, a.Rejected)
	}
	// Parallel execution must not leak into the schedule: a second run
	// with more workers is byte-identical.
	cfg.Workers = 4
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := journalJSON(t, a.Journal), journalJSON(t, b.Journal); ja != jb {
		t.Fatalf("fleet journal depends on worker count:\n%s\nvs\n%s", ja, jb)
	}
	if a.FinalTime != b.FinalTime {
		t.Fatalf("fleet end time depends on worker count: %v vs %v", a.FinalTime, b.FinalTime)
	}
}
