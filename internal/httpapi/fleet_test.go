package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// newFleetServer boots a two-host recording fleet behind the fleet
// control plane.
func newFleetServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	f := fleet.New()
	for i, name := range []string{"box-a", "box-b"} {
		opts := core.DefaultOptions()
		opts.Seed = int64(i + 1)
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddSession(name, sess); err != nil {
			t.Fatal(err)
		}
	}
	return serve(t, f, fleet.ShardConfig{Workers: 4, Epoch: 500 * simtime.Microsecond})
}

// TestFleetLifecycleOverHTTP walks the fleet API end to end: place,
// list, advance to a barrier, migrate, rebalance, evict.
func TestFleetLifecycleOverHTTP(t *testing.T) {
	_, ts := newFleetServer(t)

	// Place lands on the least-pressured host (both idle: first by name).
	var view struct {
		Tenant string `json:"tenant"`
		Host   string `json:"host"`
	}
	code := postJSON(t, ts.URL+"/api/v1/fleet/tenants",
		`{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`, &view)
	if code != http.StatusCreated || view.Host != "box-a" {
		t.Fatalf("place: code %d host %q", code, view.Host)
	}

	var hosts []struct {
		Name    string `json:"name"`
		Tenants int    `json:"tenants"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fleet/hosts", &hosts); code != http.StatusOK {
		t.Fatalf("hosts: %d", code)
	}
	if len(hosts) != 2 || hosts[0].Tenants != 1 || hosts[1].Tenants != 0 {
		t.Fatalf("hosts after place: %+v", hosts)
	}

	// Advance all hosts to a shared 2ms barrier (four 500µs epochs).
	var adv struct {
		VirtualTimeNs int64          `json:"virtual_time_ns"`
		Epochs        int            `json:"epochs"`
		HostsAdvanced int            `json:"hosts_advanced"`
		Failed        map[string]any `json:"failed"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/fleet/advance", `{"micros":2000}`, &adv); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	if adv.Epochs != 4 || adv.HostsAdvanced != 8 || adv.VirtualTimeNs != int64(2*simtime.Millisecond) || len(adv.Failed) != 0 {
		t.Fatalf("advance report: %+v", adv)
	}

	// Migrate kv to box-b, then confirm via the fleet report.
	if code := postJSON(t, ts.URL+"/api/v1/fleet/tenants/kv/migrate", `{"host":"box-b"}`, &view); code != http.StatusOK {
		t.Fatalf("migrate: %d", code)
	}
	var rep struct {
		Tenants []struct {
			ID   string `json:"id"`
			Host string `json:"host"`
		} `json:"tenants"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fleet/report", &rep); code != http.StatusOK {
		t.Fatalf("report: %d", code)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Host != "box-b" {
		t.Fatalf("tenants after migrate: %+v", rep.Tenants)
	}

	// Rebalance with healthy hosts is a no-op.
	var reb struct {
		Moved  map[string]string `json:"moved"`
		Failed []string          `json:"failed"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/fleet/rebalance", "", &reb); code != http.StatusOK {
		t.Fatalf("rebalance: %d", code)
	}
	if len(reb.Moved) != 0 || len(reb.Failed) != 0 {
		t.Fatalf("rebalance on healthy fleet moved %v failed %v", reb.Moved, reb.Failed)
	}

	// Evict wherever the tenant runs.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/fleet/tenants/kv", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ev map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&ev)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ev["host"] != "box-b" {
		t.Fatalf("evict: %d %v", resp.StatusCode, ev)
	}
}

// TestFleetHostSnapshotIsReplayable downloads a per-host checkpoint
// after real fleet activity and runs it through the snap verification
// chain: envelope checksum, then the twice-replay determinism gate.
func TestFleetHostSnapshotIsReplayable(t *testing.T) {
	_, ts := newFleetServer(t)
	if code := postJSON(t, ts.URL+"/api/v1/fleet/tenants",
		`{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`, nil); code != http.StatusCreated {
		t.Fatalf("place: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/fleet/advance", `{"micros":1500}`, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	resp, err := http.Post(ts.URL+"/api/v1/fleet/hosts/box-a/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	p, err := snap.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("downloaded snapshot does not verify: %v", err)
	}
	if p.VirtualTimeNs != int64(1500*simtime.Microsecond) {
		t.Fatalf("snapshot at %dns, want host parked at the 1500µs barrier", p.VirtualTimeNs)
	}
	div, err := snap.CheckDeterminism(p.Config, p.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("fleet host journal is nondeterministic: %v", div)
	}

	// The journal endpoint serves the same command history.
	jr, err := http.Get(ts.URL + "/api/v1/fleet/hosts/box-a/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var j struct {
		Entries []any `json:"entries"`
	}
	if err := json.NewDecoder(jr.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if len(j.Entries) != p.Journal.Len() {
		t.Fatalf("journal endpoint has %d entries, snapshot has %d", len(j.Entries), p.Journal.Len())
	}
}

// TestFleetErrorsSpeakEnvelope checks the fleet surface's error paths.
func TestFleetErrorsSpeakEnvelope(t *testing.T) {
	_, ts := newFleetServer(t)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/api/v1/fleet/advance", `{"micros":0}`, http.StatusBadRequest, CodeBadRequest},
		{"DELETE", "/api/v1/fleet/tenants/ghost", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/api/v1/fleet/tenants/ghost/migrate", `{"host":"box-b"}`, http.StatusConflict, CodeConflict},
		{"POST", "/api/v1/fleet/hosts/nope/snapshot", "", http.StatusNotFound, CodeNotFound},
		{"GET", "/api/v1/fleet/hosts/nope/journal", "", http.StatusNotFound, CodeNotFound},
		{"GET", "/api/v1/fleet/hosts/nope/topology", "", http.StatusNotFound, CodeNotFound},
		// Two hosts: the one-host aliases are not mounted.
		{"GET", "/api/v1/topology", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/api/v1/advance", `{"micros":100}`, http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if detail := decodeEnvelope(t, resp); detail.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, detail.Code, tc.code)
		}
	}
}

// TestFleetCanceledAdvanceGets499 cancels the request context before
// the advance runs: the wrapper answers 499 and no host moves.
func TestFleetCanceledAdvanceGets499(t *testing.T) {
	s, _ := newFleetServer(t)
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/v1/fleet/advance",
		strings.NewReader(`{"micros":5000}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	for _, host := range s.Fleet().Hosts() {
		if now := host.Mgr.Engine().Now(); now != 0 {
			t.Fatalf("host %s advanced to %v on a canceled request", host.Name, now)
		}
	}
}

// TestFleetQuarantineOverHTTP injects a mid-epoch panic into one host
// and checks the API's view: advance reports the failure, the hosts
// listing marks the quarantine, and healthz counts it.
func TestFleetQuarantineOverHTTP(t *testing.T) {
	s, ts := newFleetServer(t)
	bad := s.Fleet().Host("box-b")
	bad.Mgr.Engine().After(300*simtime.Microsecond, func() {
		panic(fmt.Errorf("injected fault"))
	})
	var adv struct {
		Failed map[string]string `json:"failed"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/fleet/advance", `{"micros":2000}`, &adv); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	if len(adv.Failed) != 1 || adv.Failed["box-b"] == "" {
		t.Fatalf("failed = %v, want box-b quarantined", adv.Failed)
	}
	var hosts []struct {
		Name        string `json:"name"`
		Quarantined string `json:"quarantined"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fleet/hosts", &hosts); code != http.StatusOK {
		t.Fatalf("hosts: %d", code)
	}
	if hosts[1].Name != "box-b" || hosts[1].Quarantined == "" {
		t.Fatalf("hosts after failure: %+v", hosts)
	}
	var hz struct {
		Quarantined int `json:"quarantined"`
		Hosts       int `json:"hosts"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Hosts != 2 || hz.Quarantined != 1 {
		t.Fatalf("healthz: %+v", hz)
	}
}
