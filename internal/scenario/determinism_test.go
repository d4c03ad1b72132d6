package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/snap"
)

func loadSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario specs found")
	}
	specs := make(map[string]Spec, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs[filepath.Base(p)] = spec
	}
	return specs
}

// TestScenariosAreDeterministic runs every shipped drill twice with
// its own seed and requires bit-identical results — assertion
// outcomes, details, the full timeline log, and the executed journal.
func TestScenariosAreDeterministic(t *testing.T) {
	for name, spec := range loadSpecs(t) {
		t.Run(name, func(t *testing.T) {
			first, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two runs of %s differ:\n first: %+v\nsecond: %+v", name, first, second)
			}
		})
	}
}

// TestScenarioJournalsReplayDeterministically checks every shipped
// drill as the journal it executed: it passes its asserts, two replays
// of that journal agree at every entry (snap.CheckDeterminism), and the
// snapshot taken at the end of the run restores to the run's own state
// hash.
func TestScenarioJournalsReplayDeterministically(t *testing.T) {
	for name, spec := range loadSpecs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Fatalf("shipped drill fails its asserts: %+v", res.Checks)
			}
			div, err := snap.CheckDeterminism(res.Snapshot.Config, res.Snapshot.Journal)
			if err != nil {
				t.Fatal(err)
			}
			if div != nil {
				t.Fatalf("executed journal diverges: %v", div)
			}
			if _, err := snap.RestorePayload(res.Snapshot); err != nil {
				t.Fatalf("end-of-drill snapshot does not restore: %v", err)
			}
		})
	}
}
