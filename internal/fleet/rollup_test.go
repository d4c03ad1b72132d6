package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// deterministicRollup drops the wall-clock-derived metric families
// (encode/epoch timings, command latency) that legitimately vary
// between runs; everything left is a pure function of the simulation.
func deterministicRollup(r *runner) []byte {
	s := r.Rollup().Filter(func(name string) bool {
		return !strings.HasSuffix(name, "_seconds") &&
			!strings.HasSuffix(name, "_duration_ns") &&
			!strings.HasSuffix(name, "_latency_us")
	})
	buf, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return buf
}

// TestRollupDeterministicAcrossWorkers extends the PR 3/5
// identical-across-workers assertion to roll-up bytes: the same fleet
// advanced serially and on eight workers must produce byte-identical
// (wall-clock-filtered) fleet roll-ups — metrics are part of the
// deterministic surface, not a best-effort side channel.
func TestRollupDeterministicAcrossWorkers(t *testing.T) {
	var rollups [][]byte
	for _, workers := range []int{1, 8} {
		f := buildFleet(t, 4)
		r := newRunner(f, runnerConfig{Workers: workers, Epoch: 500 * simtime.Microsecond})
		if _, err := r.RunFor(context.Background(), 5*simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		rollups = append(rollups, deterministicRollup(r))
	}
	if !bytes.Equal(rollups[0], rollups[1]) {
		t.Fatalf("roll-up bytes differ between 1 and 8 workers:\n%s\n%s",
			rollups[0], rollups[1])
	}
}

// TestRollupAggregates sanity-checks the fold: fleet counters are the
// sum over hosts, histograms carry every host's observations, and the
// host count matches.
func TestRollupAggregates(t *testing.T) {
	f := buildFleet(t, 3)
	r := newRunner(f, runnerConfig{Workers: 2})
	if _, err := r.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	roll := r.Rollup()
	if roll.Hosts != 3 || roll.Source != "fleet" {
		t.Fatalf("rollup hosts=%d source=%q, want 3/fleet", roll.Hosts, roll.Source)
	}
	var wantAdmissions uint64
	for _, h := range f.Hosts() {
		wantAdmissions += h.Mgr.Obs().Registry.Snapshot(h.Name).Counters["ihnet_core_admissions_total"]
	}
	if wantAdmissions == 0 {
		t.Fatal("hosts recorded no admissions; fixture broken")
	}
	if got := roll.Counters["ihnet_core_admissions_total"]; got != wantAdmissions {
		t.Fatalf("rolled-up admissions %d, want %d", got, wantAdmissions)
	}
	hist, ok := roll.Histograms["ihnet_fabric_recompute_duration_ns"]
	if !ok || hist.Count == 0 {
		t.Fatalf("rollup missing fabric recompute histogram: %+v", hist)
	}
	if q := hist.Quantile(0.5); q <= 0 {
		t.Fatalf("merged median %g, want > 0", q)
	}
}

// TestFleetBusFanIn: with a fleet bus configured, one subscription
// observes every host's events (tagged with the host name) plus the
// runner's own epoch barrier events.
func TestFleetBusFanIn(t *testing.T) {
	f := buildFleet(t, 3)
	bus := obs.NewBus(4096)
	r := newRunner(f, runnerConfig{Workers: 2, Bus: bus})
	sub := bus.Subscribe(4096)
	defer sub.Close()
	if _, err := r.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	hosts := make(map[string]int)
	epochs := 0
	var lastSeq uint64
	for _, be := range sub.Drain() {
		if be.Seq <= lastSeq {
			t.Fatalf("bus seq went backwards: %d after %d", be.Seq, lastSeq)
		}
		lastSeq = be.Seq
		if be.Event.Kind == obs.KindFleetEpoch {
			epochs++
			continue
		}
		if be.Event.Host == "" {
			t.Fatalf("fan-in event without host tag: %+v", be.Event)
		}
		hosts[be.Event.Host]++
	}
	if epochs == 0 {
		t.Fatal("no fleet-epoch events on the bus")
	}
	for _, h := range f.Hosts() {
		if hosts[h.Name] == 0 {
			t.Fatalf("no events from host %s (saw %v)", h.Name, hosts)
		}
	}
}
