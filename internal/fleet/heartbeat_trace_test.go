package fleet

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

var updateHeartbeatTrace = flag.Bool("update-heartbeat-trace", false,
	"rewrite testdata/heartbeat_trace.txt from the code under test")

// heartbeatTracePath holds, one line per step, what the heartbeat
// trace test saw. It was written by the per-send-lookup heartbeat
// plane (routes resolved per probe, a closure per probe and per
// delivery, votes through a map, a monitor sweep over full link
// stats), so it pins today's plane to that one's output bit for bit.
const heartbeatTracePath = "testdata/heartbeat_trace.txt"

// traceHost drives one recording host through a seeded schedule and
// renders each step as one line.
type traceHost struct {
	name    string
	sess    *snap.Session
	records hash.Hash
	nrec    int
}

func (h *traceHost) mgr() *core.Manager { return h.sess.Manager() }

// step applies one seeded journaled command, advances the host, and
// returns the step's line: transaction records (hashed as they were
// delivered to a sniffer), transaction counters, detections with
// their suspects, monitor alerts and the state hash.
func (h *traceHost) step(t *testing.T, i int, rng *rand.Rand) string {
	t.Helper()
	s := h.sess
	devs := []string{"gpu0", "gpu1", "nic0", "nic1", "ssd0", "ssd1"}
	links := h.mgr().Fabric().Topology().Links()
	tenant := fmt.Sprintf("t%d", rng.Intn(3))
	var err error
	switch op := rng.Intn(9); op {
	case 0:
		_, err = s.Admit(tenant, []intent.Target{{
			Src:  topology.CompID(devs[rng.Intn(len(devs))]),
			Dst:  intent.AnyMemory,
			Rate: topology.GBps(float64(2 + rng.Intn(20))),
		}})
	case 1:
		err = s.Evict(tenant)
	case 2:
		err = s.DegradeLink(string(links[rng.Intn(len(links))].ID), rng.Float64()*0.9,
			simtime.Duration(rng.Intn(3000)))
	case 3:
		err = s.FailLink(string(links[rng.Intn(len(links))].ID))
	case 4:
		for _, id := range h.mgr().Fabric().UnhealthyLinks() {
			if err = s.RestoreLink(string(id)); err != nil {
				break
			}
		}
	case 5:
		rps := h.mgr().Fabric().Topology().ComponentsOfKind(topology.KindRootPort)
		err = s.SetComponentConfig(string(rps[rng.Intn(len(rps))].ID), topology.ConfigIOMMU,
			[]string{"translate", "passthrough"}[rng.Intn(2)])
	case 6:
		err = s.SetComponentConfig("nic0", topology.ConfigIntModeration, []string{"0", "20", "x"}[rng.Intn(3)])
	case 7:
		err = s.StartWorkload("kv", "kv"+tenant, devs[rng.Intn(len(devs))], "")
	}
	if err == nil {
		err = s.Advance(simtime.Duration(50+rng.Intn(400)) * simtime.Microsecond)
	}
	m := h.mgr()
	dets := m.Anomaly().Detections()
	alerts := m.Monitor().Alerts()
	errText := "-"
	if err != nil {
		errText = strings.ReplaceAll(err.Error(), " ", "_")
	}
	return fmt.Sprintf("%s %03d t=%d err=%s records=%d sha=%x tx=%+v detections=%d sha=%x alerts=%d sha=%x state=%s",
		h.name, i, s.Now(), errText, h.nrec, h.records.Sum(nil)[:8], m.Fabric().TxStats(),
		len(dets), digest(fmt.Sprintf("%+v", dets)), len(alerts), digest(fmt.Sprintf("%+v", alerts)),
		snap.StateHash(m))
}

func digest(s string) []byte {
	sum := sha256.Sum256([]byte(s))
	return sum[:8]
}

func newTraceHost(t *testing.T, name string, sess *snap.Session) *traceHost {
	t.Helper()
	h := &traceHost{name: name, sess: sess, records: sha256.New()}
	sess.Manager().Fabric().AttachSniffer(func(r fabric.TxRecord) {
		h.nrec++
		fmt.Fprintf(h.records, "%d %s %s>%s %v %d/%d %d %d %d %v %s\n", r.ID, r.Tenant, r.Src, r.Dst,
			r.Path.LinkIDs(), r.ReqBytes, r.RespBytes, r.Sent, r.Done, r.RTT, r.Lost, r.LostAt)
	})
	return h
}

// TestHeartbeatPlaneTrace runs a two-socket host and a synth fleet host
// through a seeded schedule of admissions, evictions, degradations,
// failures and restores, IOMMU and interrupt-moderation config changes
// and KV workloads, with a sniffer attached, and compares every step's
// records, counters, detections, alerts and state hash with the
// recorded trace. Regenerate with -update-heartbeat-trace only for a
// change meant to alter the heartbeat plane's output.
func TestHeartbeatPlaneTrace(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 21
	twoSocket, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := Synth(SynthSpec{Hosts: 1, Seed: 4, Workload: true})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []*traceHost{
		newTraceHost(t, "two-socket", twoSocket),
		newTraceHost(t, "synth", fl.Hosts()[0].Sess),
	}
	var lines []string
	for _, h := range hosts {
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 80; i++ {
			lines = append(lines, h.step(t, i, rng))
		}
	}
	if *updateHeartbeatTrace {
		if err := os.MkdirAll(filepath.Dir(heartbeatTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(heartbeatTracePath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(heartbeatTracePath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range min(len(lines), len(want)) {
		if lines[i] != want[i] {
			t.Fatalf("line %d diverges:\n got %s\nwant %s", i+1, lines[i], want[i])
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("trace has %d lines, recorded %d", len(lines), len(want))
	}
}

// TestHeartbeatPlaneTwoWorkers advances the same four-host fleet on one
// worker and on two, with a failed link on one host so probes are lost
// and detections fire. Each host's transaction pool, routes and vote
// windows are its own: under -race this shows no state shared across
// hosts, and every host ends bit-identical to its serial run.
func TestHeartbeatPlaneTwoWorkers(t *testing.T) {
	run := func(workers int) []string {
		f, err := Synth(SynthSpec{Hosts: 4, Seed: 8, Workload: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Hosts()[1].Sess.FailLink("pcieswitch0->nic0"); err != nil {
			t.Fatal(err)
		}
		if _, err := newRunner(f, runnerConfig{Workers: workers}).RunFor(context.Background(), 3*simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, h := range f.Hosts() {
			out = append(out, fmt.Sprintf("%s tx=%+v detections=%d state=%s", h.Name,
				h.Mgr.Fabric().TxStats(), h.Mgr.Anomaly().DetectionCount(), snap.StateHash(h.Mgr)))
		}
		return out
	}
	serial, parallel := run(1), run(2)
	if !slices.Equal(serial, parallel) {
		t.Fatalf("two-worker advance diverges from serial:\n got %q\nwant %q", parallel, serial)
	}
	if strings.Contains(serial[1], "Lost:0}") || strings.Contains(serial[1], "detections=0 ") {
		t.Fatalf("failed link neither lost probes nor raised detections: %s", serial[1])
	}
}
