package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// journalBytes encodes a journal for byte comparison.
func journalBytes(t *testing.T, j snap.Journal) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := j.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOneHostAdvanceJournalMatchesSlices pins the one-host fleet's
// advance semantics: POST /api/v1/advance runs through the sharded
// engine, and the journal it records equals the one from driving the
// same session directly with Session.Advance in 1 ms slices.
func TestOneHostAdvanceJournalMatchesSlices(t *testing.T) {
	s, ts := newServer(t)
	if code := postJSON(t, ts.URL+"/api/v1/advance", `{"micros":2500}`, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/tenants",
		`{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":40}]}`, nil); code != http.StatusCreated {
		t.Fatalf("admit: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/advance", `{"micros":1700}`, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}

	ref, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	slices := func(total simtime.Duration) {
		for done := simtime.Duration(0); done < total; {
			step := min(simtime.Millisecond, total-done)
			if err := ref.Advance(step); err != nil {
				t.Fatal(err)
			}
			done += step
		}
	}
	slices(2500 * simtime.Microsecond)
	var req admitDTO
	if err := json.Unmarshal([]byte(`{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":40}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Admit(req.Tenant, req.intentTargets()); err != nil {
		t.Fatal(err)
	}
	slices(1700 * simtime.Microsecond)

	got, want := journalBytes(t, s.only.Sess.Journal()), journalBytes(t, ref.Journal())
	if !bytes.Equal(got, want) {
		t.Fatalf("journal through POST /advance differs from 1ms-sliced Session.Advance:\n got %s\nwant %s", got, want)
	}
	if a, b := snap.StateHash(s.only.Mgr), snap.StateHash(ref.Manager()); a != b {
		t.Fatalf("state hash %s, want %s", a, b)
	}
}

// TestRestoreRebindsRemediation is the regression for restores under
// remediation: the controller must follow the host to its restored
// session — watching the new manager and acting through the new
// journal — instead of staying bound to the stopped one.
func TestRestoreRebindsRemediation(t *testing.T) {
	s, ts := newRemedyServer(t)
	acfg := core.DefaultOptions().Anomaly
	s.Advance(simtime.Duration(acfg.CalibrationRounds+5) * acfg.Period)

	resp, err := http.Post(ts.URL+"/api/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if code := postJSON(t, ts.URL+"/api/v1/advance", `{"micros":300}`, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	resp, err = http.Post(ts.URL+"/api/v1/restore", "application/json", bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	restored := s.only.Sess

	if code := postJSON(t, ts.URL+"/api/v1/batch",
		`{"ops":[{"op":"fail","link":"cpu0->cpu1"}]}`, nil); code != http.StatusOK {
		t.Fatalf("inject fault: %d", code)
	}
	for i := 0; i < 40; i++ {
		s.Advance(acfg.Period)
	}
	if s.only.Sess != restored {
		t.Fatal("host session changed after restore")
	}
	healed := false
	for _, e := range restored.Journal().Entries {
		if e.Kind == snap.KindRestoreLink {
			healed = true
		}
	}
	if !healed {
		t.Fatalf("controller action missing from the restored session's journal: %+v", restored.Journal().Entries)
	}
	var st remedyStatusDTO
	if code := getJSON(t, ts.URL+"/api/v1/remedy/status", &st); code != http.StatusOK || st.Stats.Executed == 0 {
		t.Fatalf("remedy status after restore: %d %+v", code, st.Stats)
	}
}

// promCounter reads one unlabeled counter from a Prometheus scrape.
func promCounter(t *testing.T, url, name string) uint64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from %s", name, url)
	return 0
}

// TestBatchPromCountersMatchSolver: the solver batch counters on
// /metrics move with the batches the solver snapshot reports.
func TestBatchPromCountersMatchSolver(t *testing.T) {
	_, ts := newServer(t)
	if code := postJSON(t, ts.URL+"/api/v1/batch", `{"ops":[
		{"op":"admit","tenant":"kv","targets":[{"src":"nic0","dst":"socket0.dimm0_0","rate_gbps":20}]},
		{"op":"admit","tenant":"ml","targets":[{"src":"gpu0","dst":"socket0.dimm0_0","rate_gbps":10}]},
		{"op":"set-cap","link":"pcieswitch0->nic0","tenant":"kv","cap_bps":5e9}
	]}`, nil); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	var st fabric.SolverStats
	if code := getJSON(t, ts.URL+"/api/v1/fabric/solver", &st); code != http.StatusOK {
		t.Fatalf("solver: %d", code)
	}
	if st.Batches == 0 || st.BatchedMutations == 0 {
		t.Fatalf("solver saw no batches: %+v", st)
	}
	if got := promCounter(t, ts.URL+"/metrics", "ihnet_fabric_solver_batches_total"); got != st.Batches {
		t.Errorf("ihnet_fabric_solver_batches_total = %d, solver reports %d", got, st.Batches)
	}
	if got := promCounter(t, ts.URL+"/metrics", "ihnet_fabric_solver_batched_mutations_total"); got != st.BatchedMutations {
		t.Errorf("ihnet_fabric_solver_batched_mutations_total = %d, solver reports %d", got, st.BatchedMutations)
	}
}

// TestFleetPerHostRoutes: in a multi-host fleet the host table serves
// every host under /fleet/hosts/{host}/, writes root the request span
// on the addressed host's journal, and a per-host restore rolls back
// that host alone.
func TestFleetPerHostRoutes(t *testing.T) {
	s, ts := newFleetServer(t)
	var topo struct {
		Name string `json:"name"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fleet/hosts/box-b/topology", &topo); code != http.StatusOK || topo.Name != "two-socket" {
		t.Fatalf("per-host topology: %d %+v", code, topo)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/fleet/hosts/box-b/tenants",
		strings.NewReader(`{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`))
	req.Header.Set("X-Request-ID", "per-host-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view viewDTO
	_ = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || view.Host != "box-b" {
		t.Fatalf("per-host admit: %d %+v", resp.StatusCode, view)
	}
	b := s.fleet.Host("box-b")
	entries := b.Sess.Journal().Entries
	if last := entries[len(entries)-1]; last.Kind != snap.KindAdmit || last.Span != "per-host-1" {
		t.Fatalf("admit journaled as %+v, want span per-host-1", last)
	}
	if s.fleet.Host("box-a").Mgr.Tenant("kv") != nil {
		t.Fatal("per-host admit landed on the wrong host")
	}

	resp, err = http.Post(ts.URL+"/api/v1/fleet/hosts/box-b/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if code := postJSON(t, ts.URL+"/api/v1/fleet/advance", `{"micros":1000}`, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	var restored struct {
		Host          string `json:"host"`
		VirtualTimeNs int64  `json:"virtual_time_ns"`
	}
	resp, err = http.Post(ts.URL+"/api/v1/fleet/hosts/box-b/restore", "application/json", bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&restored)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || restored.Host != "box-b" || restored.VirtualTimeNs != 0 {
		t.Fatalf("per-host restore: %d %+v", resp.StatusCode, restored)
	}
	if now := s.fleet.Host("box-a").Mgr.Engine().Now(); now != simtime.Time(simtime.Millisecond) {
		t.Fatalf("restore of box-b moved box-a to %v", now)
	}
	// The restored host catches up at the next barrier.
	if code := postJSON(t, ts.URL+"/api/v1/fleet/advance", `{"micros":500}`, nil); code != http.StatusOK {
		t.Fatalf("advance after restore: %d", code)
	}
	for _, h := range s.fleet.Hosts() {
		if now := h.Mgr.Engine().Now(); now != simtime.Time(1500*simtime.Microsecond) {
			t.Fatalf("host %s at %v after the post-restore advance", h.Name, now)
		}
	}
}
